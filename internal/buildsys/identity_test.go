package buildsys

// Source identity in the partition loop (white-box): a builder hashes a
// unit's source only when its bytes differ from the ones the unit's entry
// last saw, hashes each unit at most once per build, and reuses a hash
// only where the bytes prove it — every reuse below is checked against the
// stateless oracle or the previous program.

import (
	"fmt"
	"sync"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// identityProfile is a small project: a dozen units, cross-unit calls.
func identityProfile() workload.Profile {
	return workload.Profile{
		Name: "identity", Seed: 2026,
		Files: 12, FuncsPerFileMin: 3, FuncsPerFileMax: 6,
		StmtsPerFuncMin: 4, StmtsPerFuncMax: 8,
		GlobalsPerFile: 2, CrossFileCallFrac: 0.4, PrivateFrac: 0.3,
	}
}

// buildHashed builds snap and returns the report and the source bytes the
// build content-hashed.
func buildHashed(tb testing.TB, b *Builder, snap project.Snapshot) (*Report, int64) {
	tb.Helper()
	before := b.ctr.sourceBytesHashed.Load()
	rep, err := b.Build(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return rep, b.ctr.sourceBytesHashed.Load() - before
}

// withExtraFuncs is a clone of snap with a new function appended to each
// named unit.
func withExtraFuncs(snap project.Snapshot, units ...string) project.Snapshot {
	out := snap.Clone()
	for i, u := range units {
		out[u] = append(out[u], fmt.Sprintf("\nfunc identity_extra_%d(x int) int { return x * 5 + %d; }\n", i, i)...)
	}
	return out
}

// bytesOf sums the source sizes of the named units in snap.
func bytesOf(snap project.Snapshot, units []string) int64 {
	n := 0
	for _, u := range units {
		n += len(snap[u])
	}
	return int64(n)
}

// statelessText is the stateless oracle's program for snap, as text.
func statelessText(t *testing.T, snap project.Snapshot) string {
	t.Helper()
	b, err := NewBuilder(Options{Mode: compiler.ModeStateless, Workers: 2, HistoryPath: "-"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	return codegen.DisassembleProgram(rep.Program)
}

// TestDeclaredHashOncePerUnitPerBuild: the declared hash goes through
// ContentHashHook exactly once per unit in every build — cold, no-edit and
// a 2-unit edit, at 1, 2 and 4 workers, with footprint tracing off and on —
// and the honest hash the hook receives is ContentHash of the unit's bytes.
func TestDeclaredHashOncePerUnitPerBuild(t *testing.T) {
	base := workload.Generate(identityProfile())
	units := base.Units()
	builds := []struct {
		name     string
		snap     project.Snapshot
		compiled int
	}{
		{"cold", base, len(base)},
		{"no-edit", base.Clone(), 0},
		{"2-unit edit", withExtraFuncs(base, units[1], units[len(units)-2]), 2},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/footprint=%v", workers, traced), func(t *testing.T) {
				var mu sync.Mutex
				calls := map[string]int{}
				hook := func(unit string, src []byte, honest uint64) uint64 {
					mu.Lock()
					defer mu.Unlock()
					calls[unit]++
					if honest != ContentHash(src) {
						t.Errorf("unit %s: hook got honest hash %016x, ContentHash says %016x", unit, honest, ContentHash(src))
					}
					return honest
				}
				b, err := NewBuilder(Options{
					Mode: compiler.ModeStateful, StateDir: t.TempDir(), Workers: workers,
					Footprint: traced, ContentHashHook: hook,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, build := range builds {
					clear(calls)
					rep, _ := buildHashed(t, b, build.snap)
					if rep.UnitsCompiled != build.compiled {
						t.Fatalf("%s: compiled %d units, want %d", build.name, rep.UnitsCompiled, build.compiled)
					}
					if len(calls) != len(build.snap) {
						t.Errorf("%s: hook saw %d units of %d", build.name, len(calls), len(build.snap))
					}
					for _, u := range build.snap.Units() {
						if calls[u] != 1 {
							t.Errorf("%s: unit %s: declared hash taken %d times, want 1", build.name, u, calls[u])
						}
					}
				}
			})
		}
	}
}

// TestSourceBytesHashed holds build.source_bytes_hashed to the work the
// partition loop must do on the megarepo: every byte on a cold build, none
// on a resident rebuild of the same or of equal bytes, the edited units'
// bytes on an edit, and every byte once in a new builder over warm state.
func TestSourceBytesHashed(t *testing.T) {
	base := workload.Generate(workload.MegaProfile())
	edited, _ := workload.NewEditor(9).Commit(base, workload.CommitOptions{Units: 2})
	changed := project.Diff(base, edited)
	if len(changed) == 0 {
		t.Fatal("the commit edited nothing")
	}
	dir := t.TempDir()
	b, err := NewBuilder(Options{Mode: compiler.ModeStateful, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []struct {
		name     string
		snap     project.Snapshot
		compiled int
		hashed   int64
	}{
		{"cold", base, len(base), int64(base.TotalBytes())},
		{"no-edit, same slices", base, 0, 0},
		{"no-edit, cloned slices", base.Clone(), 0, 0},
		{fmt.Sprintf("%d-unit edit", len(changed)), edited, len(changed), bytesOf(edited, changed)},
	} {
		rep, hashed := buildHashed(t, b, build.snap)
		if rep.UnitsCompiled != build.compiled || hashed != build.hashed {
			t.Errorf("%s: compiled %d units and hashed %d source bytes, want %d and %d",
				build.name, rep.UnitsCompiled, hashed, build.compiled, build.hashed)
		}
		if got := rep.Metrics[obs.CtrSourceBytesHashed]; got != b.ctr.sourceBytesHashed.Load() {
			t.Errorf("%s: report says %s = %d, the registry %d", build.name, obs.CtrSourceBytesHashed, got, b.ctr.sourceBytesHashed.Load())
		}
	}

	fresh, err := NewBuilder(Options{Mode: compiler.ModeStateful, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, hashed := buildHashed(t, fresh, edited)
	if rep.UnitsCompiled != len(edited) || hashed != int64(edited.TotalBytes()) {
		t.Errorf("new builder over warm state: compiled %d units and hashed %d source bytes, want %d and %d",
			rep.UnitsCompiled, hashed, len(edited), edited.TotalBytes())
	}
}

// TestResidentSourceIdentity: reusing a hash is sound. A resident stateful
// builder given (a) a fully cloned snapshot compiles nothing and links the
// same program, (b) a clone with one byte changed compiles exactly that
// unit and links the stateless oracle's program, (c) a unit removed and
// re-added with the very same slice compiles once, and (d) under
// EnforceFootprint the adoption of a moved declared hash also takes the new
// slices, so the next identical build hashes nothing.
func TestResidentSourceIdentity(t *testing.T) {
	base := workload.Generate(identityProfile())
	units := base.Units()
	b, err := NewBuilder(Options{Mode: compiler.ModeStateful, StateDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := buildHashed(t, b, base)

	t.Run("clone", func(t *testing.T) {
		rep, hashed := buildHashed(t, b, base.Clone())
		if rep.UnitsCompiled != 0 || hashed != 0 {
			t.Fatalf("compiled %d units, hashed %d bytes; want 0 and 0", rep.UnitsCompiled, hashed)
		}
		if codegen.DisassembleProgram(rep.Program) != codegen.DisassembleProgram(first.Program) {
			t.Fatal("a cloned snapshot linked another program")
		}
	})

	t.Run("one byte", func(t *testing.T) {
		u := units[len(units)/2]
		snap := base.Clone()
		i := digitToBump(snap[u])
		if i < 0 {
			t.Fatalf("unit %s has no digit to change", u)
		}
		snap[u][i]++
		rep, hashed := buildHashed(t, b, snap)
		if rep.UnitsCompiled != 1 || rep.Unit(u).Cached || hashed != int64(len(snap[u])) {
			t.Fatalf("compiled %d units (%s: %v), hashed %d bytes; want %s alone and %d",
				rep.UnitsCompiled, u, !rep.Unit(u).Cached, hashed, u, len(snap[u]))
		}
		if codegen.DisassembleProgram(rep.Program) != statelessText(t, snap) {
			t.Fatal("the program is not the stateless oracle's")
		}
		if rep, _ := buildHashed(t, b, base); rep.UnitsCompiled != 1 { // back to base for the next case
			t.Fatalf("restoring %s compiled %d units, want 1", u, rep.UnitsCompiled)
		}
	})

	t.Run("removed and re-added", func(t *testing.T) {
		extra := []byte("func identity_spare(x int) int { return x * 2; }\n")
		with := base.Clone()
		with["zz_spare.mc"] = extra
		for i, step := range []struct {
			snap     project.Snapshot
			compiled int
		}{{with, 1}, {base, 0}, {with, 1}, {with, 0}} {
			rep, _ := buildHashed(t, b, step.snap)
			if rep.UnitsCompiled != step.compiled {
				t.Fatalf("step %d: compiled %d units, want %d", i, rep.UnitsCompiled, step.compiled)
			}
		}
	})

	t.Run("adoption under enforcement", func(t *testing.T) {
		lie := uint64(0)
		e, err := NewBuilder(Options{
			Mode: compiler.ModeStateful, StateDir: t.TempDir(), Workers: 2,
			Footprint: true, EnforceFootprint: true,
			ContentHashHook: func(_ string, _ []byte, honest uint64) uint64 { return honest ^ lie },
		})
		if err != nil {
			t.Fatal(err)
		}
		buildHashed(t, e, base)
		lie = 0xF00D // same bytes, "new" declared hash
		moved := base.Clone()
		rep, hashed := buildHashed(t, e, moved)
		if rep.UnitsCached != len(moved) || len(rep.FootprintRedundant) != len(moved) || hashed != 0 {
			t.Fatalf("cached %d, redundant %d of %d units, hashed %d bytes; want all, all and 0",
				rep.UnitsCached, len(rep.FootprintRedundant), len(moved), hashed)
		}
		for _, u := range units {
			ent := e.units[u]
			if &ent.src[0] != &moved[u][0] || ent.honest != ContentHash(moved[u]) {
				t.Fatalf("unit %s: the adopted entry kept the old source slice or its hash", u)
			}
		}
		rep, hashed = buildHashed(t, e, moved)
		if rep.UnitsCompiled != 0 || len(rep.FootprintRedundant) != 0 || hashed != 0 {
			t.Fatalf("identical rebuild: compiled %d, redundant %v, hashed %d bytes; want 0, none, 0",
				rep.UnitsCompiled, rep.FootprintRedundant, hashed)
		}
	})
}

// digitToBump is the index of the first digit 1–8 that stands alone as a
// number literal in src (not part of a name or of a longer number), or -1.
// Adding one to it changes a constant and nothing else.
func digitToBump(src []byte) int {
	word := func(c byte) bool {
		return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
	}
	for i := 1; i+1 < len(src); i++ {
		if src[i] >= '1' && src[i] <= '8' && !word(src[i-1]) && !word(src[i+1]) {
			return i
		}
	}
	return -1
}

// BenchmarkResidentRebuild times a resident stateful builder's rebuild of
// the megarepo, with hashedB/op the source bytes each build content-hashed,
// tailReads/op the flight-recorder appends that read the history's end,
// linkChecked/op the objects the link checked and codeReused/op the
// functions whose code a compile took from the unit's last object: noedit
// passes the same
// snapshot again, edit2 alternates between two snapshots that differ in two
// units, and clone alternates between two copies of equal bytes (what
// `minibuild serve` passes after re-reading the tree).
func BenchmarkResidentRebuild(b *testing.B) {
	base := workload.Generate(workload.MegaProfile())
	units := base.Units()
	edited := withExtraFuncs(base, units[1], units[len(units)-2])
	for _, bm := range []struct {
		name  string
		snaps []project.Snapshot
	}{
		{"noedit", []project.Snapshot{base}},
		{"edit2", []project.Snapshot{edited, base}},
		{"clone", []project.Snapshot{base.Clone(), base.Clone()}},
	} {
		b.Run(bm.name, func(b *testing.B) {
			builder, err := NewBuilder(Options{Mode: compiler.ModeStateful, StateDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			buildHashed(b, builder, base)
			b.ResetTimer()
			var hashed, reads, checked, codeReused int64
			codeReusedCtr := builder.reg.Counter(obs.CtrCodeReused)
			for i := 0; i < b.N; i++ {
				r, c, cr := builder.ctr.historyTailReads.Load(), builder.ctr.linkObjectsChecked.Load(), codeReusedCtr.Load()
				_, n := buildHashed(b, builder, bm.snaps[i%len(bm.snaps)])
				hashed += n
				reads += builder.ctr.historyTailReads.Load() - r
				checked += builder.ctr.linkObjectsChecked.Load() - c
				codeReused += codeReusedCtr.Load() - cr
			}
			b.ReportMetric(float64(hashed)/float64(b.N), "hashedB/op")
			b.ReportMetric(float64(reads)/float64(b.N), "tailReads/op")
			b.ReportMetric(float64(checked)/float64(b.N), "linkChecked/op")
			b.ReportMetric(float64(codeReused)/float64(b.N), "codeReused/op")
		})
	}
}

// TestResidentRebuildWork: what a resident builder's rebuild costs beside its
// compiles follows the edit, not the project. A builder's first build reads
// the history's end and checks every object; a rebuild with no edit reads
// nothing and checks nothing; an edit of two units that adds a function to
// each and takes it away again checks those two objects and reads nothing. A
// new builder over the same state directory starts over.
func TestResidentRebuildWork(t *testing.T) {
	base := workload.Generate(identityProfile())
	units := base.Units()
	edited := withExtraFuncs(base, units[1], units[len(units)-2])
	dir := t.TempDir()
	newBuilder := func() *Builder {
		b, err := NewBuilder(Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := newBuilder()
	for _, step := range []struct {
		name           string
		snap           project.Snapshot
		fresh          bool
		reads, checked int64
	}{
		{"first build", base, false, 1, int64(len(units))},
		{"no edit", base, false, 0, 0},
		{"two units edited", edited, false, 0, 2},
		{"the edit undone", base, false, 0, 2},
		{"a new builder", base, true, 1, int64(len(units))},
		{"its rebuild", base, false, 0, 0},
	} {
		if step.fresh {
			b = newBuilder()
		}
		r, c := b.ctr.historyTailReads.Load(), b.ctr.linkObjectsChecked.Load()
		if _, err := b.Build(step.snap); err != nil {
			t.Fatal(err)
		}
		reads, checked := b.ctr.historyTailReads.Load()-r, b.ctr.linkObjectsChecked.Load()-c
		if reads != step.reads || checked != step.checked {
			t.Errorf("%s: %d history tail reads and %d objects checked, want %d and %d",
				step.name, reads, checked, step.reads, step.checked)
		}
	}
}

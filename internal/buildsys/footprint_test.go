package buildsys_test

// Build-system-level footprint tests: cross-check counters and report
// wiring, enforcement semantics for both disagreement directions, the
// state-v6 persistence round trip, and a chaos walk (TestChaosFootprint*,
// picked up by `make chaos`) proving footprint-enabled builds degrade as
// gracefully under injected I/O faults as untraced ones.

import (
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/footprint"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/state"
	"statefulcc/internal/vfs"
)

// footprintBuilder is a stateful builder with tracing on.
func footprintBuilder(t *testing.T, dir string, enforce bool, hook func(string, []byte, uint64) uint64) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: dir,
		Footprint: true, EnforceFootprint: enforce, ContentHashHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFootprintCheckedOnCacheHits(t *testing.T) {
	b := footprintBuilder(t, t.TempDir(), false, nil)
	mustBuild(t, b, twoUnitSnap())
	rep := mustBuild(t, b, chaosEditedSnap()) // lib edited, main untouched

	m := b.Metrics()
	if m[obs.CtrFootprintChecked] == 0 {
		t.Fatal("no cross-checks ran on the rebuild (main.mc was served from cache)")
	}
	if m[obs.CtrFootprintMissed] != 0 || m[obs.CtrFootprintRedundant] != 0 {
		t.Fatalf("honest rebuild disagreed with footprint: %v", m)
	}
	if len(rep.FootprintMissed) != 0 || len(rep.FootprintRedundant) != 0 {
		t.Fatalf("honest rebuild flagged units: %v / %v", rep.FootprintMissed, rep.FootprintRedundant)
	}
}

func TestFootprintMissedServesStaleWithoutEnforce(t *testing.T) {
	// The frozen-hash lie without enforcement: the stale object is served
	// (documenting the failure mode), the miss is counted and warned.
	b := footprintBuilder(t, t.TempDir(), false, oracletest.LyingHook())
	repA := mustBuild(t, b, twoUnitSnap())
	repB := mustBuild(t, b, chaosEditedSnap())

	if got := codegen.DisassembleProgram(repB.Program); got != codegen.DisassembleProgram(repA.Program) {
		t.Fatal("without enforcement the lying build should have served the stale object")
	}
	if len(repB.FootprintMissed) == 0 {
		t.Fatal("stale serve not flagged as missed invalidation")
	}
	warned := false
	for _, w := range repB.Warnings {
		if strings.Contains(w, "missed invalidation") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no warning for the missed invalidation: %v", repB.Warnings)
	}
}

func TestFootprintRedundantServedUnderEnforce(t *testing.T) {
	// The opposite lie: the declared hash moves although the bytes did not.
	// Unenforced that forces pointless recompiles; enforced, the footprint
	// proves the cached object valid and serves it.
	lie := uint64(0)
	hook := func(_ string, _ []byte, honest uint64) uint64 { return honest ^ lie }

	b := footprintBuilder(t, t.TempDir(), true, hook)
	snap := twoUnitSnap()
	mustBuild(t, b, snap)
	lie = 0xF00D // same bytes, "new" declared hash
	rep := mustBuild(t, b, snap)

	if rep.UnitsCached != len(snap) {
		t.Fatalf("enforcement served %d/%d units from cache; footprint proved all valid", rep.UnitsCached, len(snap))
	}
	if len(rep.FootprintRedundant) != len(snap) {
		t.Fatalf("redundant list %v, want all %d units", rep.FootprintRedundant, len(snap))
	}
	if m := b.Metrics(); m[obs.CtrFootprintRedundant] == 0 {
		t.Fatal("footprint.redundant counter not incremented")
	}

	// The adopted declared hash must re-converge: a third build with the
	// same lie is a plain cache hit, no disagreement.
	rep3 := mustBuild(t, b, snap)
	if len(rep3.FootprintRedundant) != 0 || rep3.UnitsCached != len(snap) {
		t.Fatalf("declared channel did not re-converge: cached %d, redundant %v",
			rep3.UnitsCached, rep3.FootprintRedundant)
	}
}

func TestFootprintPersistsInStateV6(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	b := footprintBuilder(t, dir, false, nil)
	mustBuild(t, b, snap)

	want := b.Footprints()
	if len(want) != len(snap) {
		t.Fatalf("builder retained %d footprints for %d units", len(want), len(snap))
	}
	seen := 0
	entries, err := vfs.OS.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".state") {
			continue
		}
		st, err := state.Load(dir + "/" + e.Name())
		if err != nil {
			t.Fatalf("load %s: %v", e.Name(), err)
		}
		if st.Footprint == nil {
			t.Fatalf("state file %s carries no footprint", e.Name())
		}
		mem := want[st.Unit]
		if mem == nil || !st.Footprint.Equal(mem) {
			t.Fatalf("unit %s: persisted footprint differs from the in-memory record", st.Unit)
		}
		src := snap[st.Unit]
		if st.Footprint.DeclaredHash != buildsys.ContentHash(src) {
			t.Fatalf("unit %s: declared hash not recorded verbatim", st.Unit)
		}
		if got, ok := st.Footprint.Get(footprint.KindSource, st.Unit); !ok || got != footprint.HashBytes(src) {
			t.Fatalf("unit %s: source ground-truth entry wrong (%016x, ok=%v)", st.Unit, got, ok)
		}
		if _, ok := st.Footprint.Get(footprint.KindPipeline, "pipeline"); !ok {
			t.Fatalf("unit %s: pipeline entry missing", st.Unit)
		}
		seen++
	}
	if seen != len(snap) {
		t.Fatalf("found %d footprint-bearing state files, want %d", seen, len(snap))
	}

	// main.mc calls helper cross-unit: its link-scope entry records the
	// arity the linker checks.
	if h, ok := want["main.mc"].Get(footprint.KindCall, "helper"); !ok || h != 1 {
		t.Fatalf("main.mc call entry for helper = %d, %v; want arity 1", h, ok)
	}
}

// TestChaosFootprintFaultWalk replays the chaos sequence (build → edit →
// rebuild → two fresh builders) with footprint tracing and enforcement on,
// injecting one FaultError per recorded I/O point. Invariants: builds never
// fail, output stays byte-identical to the stateless oracle (no fault may
// flip a cache decision the wrong way), and honest builds never report
// missed invalidations — a state file that fails to load or save just
// degrades to an untracked (always-recompiled, never-cross-checked) unit.
func TestChaosFootprintFaultWalk(t *testing.T) {
	bases := chaosBaselines(t)

	run := func(t *testing.T, fsys vfs.FS, dir string) {
		t.Helper()
		c := chaosCandidate(t, dir, func() *buildsys.Builder {
			b, err := buildsys.NewBuilder(buildsys.Options{
				Mode: compiler.ModeStateful, StateDir: dir, Workers: 1, FS: fsys,
				Footprint: true, EnforceFootprint: true,
			})
			if err != nil {
				t.Fatalf("builder creation must survive I/O faults: %v", err)
			}
			return b
		})
		c.Check = func(i int, rep *buildsys.Report) {
			if len(rep.FootprintMissed) != 0 {
				t.Fatalf("build %d: honest faulted build reported missed invalidations: %v", i, rep.FootprintMissed)
			}
		}
		oracletest.Walk(t, chaosStream(), bases, c)
	}

	// Clean recorded run enumerates the footprint-mode fault points.
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, chaosCanon(recDir))
	run(t, rec, recDir)
	points := chaostest.Points(rec.Calls())
	if len(points) < 30 {
		t.Fatalf("recorded only %d fault points; footprint mode shrank the I/O surface: %v", len(points), points)
	}

	for _, p := range points {
		p := p
		t.Run(chaostest.Name(p, vfs.FaultError), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir), vfs.WithRules(chaostest.RuleFor(p, vfs.FaultError)))
			run(t, ffs, dir)
			chaostest.AssertFiredOrAbsent(t, ffs.Log, p)
		})
	}
}

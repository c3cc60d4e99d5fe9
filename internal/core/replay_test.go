package core_test

import (
	"slices"
	"testing"

	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/passes"
	"statefulcc/internal/state"
	"statefulcc/internal/workload"
)

// megaModules lowers every unit of the megarepo and prunes what deadfunc
// would delete: the functions a compile's first segment keys.
func megaModules(tb testing.TB) []*ir.Module {
	tb.Helper()
	snap := workload.Generate(workload.MegaProfile())
	var mods []*ir.Module
	for _, u := range snap.Units() {
		m, err := compiler.Frontend(u, snap[u])
		if err != nil {
			tb.Fatal(err)
		}
		passes.PruneDeadFuncs(m)
		mods = append(mods, m)
	}
	return mods
}

// BenchmarkSegmentRecordMega prices what recording adds to a compile, per
// IR value: the key of a function (encode and hash) and its encoding into
// the memo's buffer, over every megarepo function as it enters the
// pipeline and as it leaves it. A compile records a function right after a
// pass or the frontend touched it, so each unit is recorded b.N times in a
// row, its IR in cache as it is in a compile.
func BenchmarkSegmentRecordMega(b *testing.B) {
	mods := megaModules(b)
	for _, m := range megaModules(b) {
		if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	values, bytes := 0, 0
	var snap ir.Snapshot
	var buf []byte
	seed := ir.NewKeySeed()
	b.ResetTimer()
	for _, m := range mods {
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, f := range m.Funcs {
				snap.Key(f, seed)
				buf, _ = snap.AppendFunc(buf, f)
			}
		}
		for _, f := range m.Funcs {
			values += f.NumValues()
		}
		bytes += len(buf)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
	b.ReportMetric(float64(bytes)/float64(values), "B/value")
}

// TestSegmentRecordAllocs: recording a unit's segments allocates the memo's
// one buffer and one index, and nothing per function or per value — on the
// smallest and the largest megarepo unit alike.
func TestSegmentRecordAllocs(t *testing.T) {
	mods := megaModules(t)
	small, large := mods[0], mods[0]
	for _, m := range mods {
		if len(m.Funcs) < len(small.Funcs) {
			small = m
		}
		if len(m.Funcs) > len(large.Funcs) {
			large = m
		}
	}
	d, err := core.NewDriver(core.Options{Policy: core.Stateful})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*ir.Module{small, large} {
		st := core.NewUnitState(m.Unit, passes.StandardPipeline)
		d.RecordSegments(m, st) // warms the scratch and makes the unit's records
		if st.MemoBytes() == 0 {
			t.Fatalf("%s: nothing recorded", m.Unit)
		}
		if n := testing.AllocsPerRun(10, func() { d.RecordSegments(m, st) }); n > 2 {
			t.Errorf("%s (%d functions): recording allocates %.0f times, want the buffer and the index", m.Unit, len(m.Funcs), n)
		}
	}
}

// standardSegments are StandardPipeline's runs of function-local function
// slots: the segments the driver replays.
func standardSegments(t testing.TB) [][2]int {
	t.Helper()
	var segs [][2]int
	for i, name := range passes.StandardPipeline {
		info, ok := passes.Lookup(name)
		if !ok {
			t.Fatalf("unknown pass %s", name)
		}
		if info.Module || !info.FunctionLocal {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1][1] == i-1 {
			segs[n-1][1] = i
		} else {
			segs = append(segs, [2]int{i, i})
		}
	}
	return segs
}

// runSlots runs StandardPipeline's slots from..to (inclusive) over m, as
// the stateless compiler does.
func runSlots(t testing.TB, m *ir.Module, from, to int) {
	t.Helper()
	if _, err := passes.RunPipeline(m, passes.StandardPipeline[from:to+1]); err != nil {
		t.Fatal(err)
	}
}

// TestIDTrap: a callee edit that the first segment erases (a dead local)
// still moves the IDs the caller holds after inlining — the callee's
// constants are shared, numbered by the callee — and the callee's own
// value numbering. The canonical fingerprint of both post-inline bodies is
// unchanged, so a memo keyed by it would replay the old output; the exact
// key differs, the second segment misses for both, and the resident
// rebuild's IR is the stateless compile's, value IDs included.
func TestIDTrap(t *testing.T) {
	const caller = "func main() int { var s int = 0; for var i int = 0; i < 3; i++ { s += calc(i); } return s; }\n"
	v1 := "func calc(x int) int { return x * 5 + 1; }\n" + caller
	v2 := "func calc(x int) int { var dead int = x * 7; return x * 5 + 1; }\n" + caller
	segs := standardSegments(t)
	if len(segs) != 2 {
		t.Fatalf("StandardPipeline has %d segments, want 2", len(segs))
	}
	inline := segs[1][0] - 1

	// The trap is real: after inlining, equal fingerprints, unequal keys.
	var snap ir.Snapshot
	seed := ir.NewKeySeed()
	postInline := func(src string) *ir.Module {
		m := build(t, src)
		runSlots(t, m, 0, inline)
		return m
	}
	p1, p2 := postInline(v1), postInline(v2)
	for _, name := range []string{"calc", "main"} {
		f1, f2 := p1.FindFunc(name), p2.FindFunc(name)
		if fingerprint.Function(f1) != fingerprint.Function(f2) {
			t.Fatalf("%s: the edit changed the post-inline fingerprint; the test needs one it leaves alone", name)
		}
		k1, ok1 := snap.Key(f1, seed)
		k2, ok2 := snap.Key(f2, seed)
		if !ok1 || !ok2 || k1 == k2 {
			t.Fatalf("%s: post-inline keys %x/%v and %x/%v, want two different ones", name, k1, ok1, k2, ok2)
		}
	}

	d := newDriver(t, core.Options{Policy: core.Stateful, VerifyIR: true})
	st, _, err := d.Run(build(t, v1), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := build(t, v2)
	_, stats, err := d.Run(m, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Slots[segs[0][0]].Replayed; got != 1 {
		t.Errorf("first segment replayed %d functions, want main's", got)
	}
	if got := stats.Slots[segs[1][0]].Replayed; got != 0 {
		t.Errorf("second segment replayed %d functions past an ID shift", got)
	}
	want := build(t, v2)
	if _, _, err := newDriver(t, core.Options{}).Run(want, nil); err != nil {
		t.Fatal(err)
	}
	if m.String() != want.String() {
		t.Errorf("resident rebuild differs from stateless:\n%s\nwant:\n%s", m, want)
	}
}

// TestSampledReplayRuns: a replay the sentinel samples is not taken — the
// segment runs (under the dormancy rules, for the stateful policy) and its
// output key is checked against the entry's. Every replaying arm replays
// through the same segments, so Replay alone is sampled too.
func TestSampledReplayRuns(t *testing.T) {
	for _, policy := range oracletest.Arms {
		if policy&core.Replay == 0 {
			continue
		}
		t.Run(policy.String(), func(t *testing.T) {
			d := newDriver(t, core.Options{Policy: policy, AuditRate: 1})
			st, _, err := d.Run(build(t, unitSrc), nil)
			if err != nil {
				t.Fatal(err)
			}
			m := build(t, unitSrc)
			_, stats, err := d.Run(m, st)
			if err != nil {
				t.Fatal(err)
			}
			audited, unsound := stats.SentinelTotals()
			if n := replayed(stats); n != 0 || audited == 0 || unsound != 0 {
				t.Errorf("replayed %d, audited %d, unsound %d; want 0, > 0, 0", n, audited, unsound)
			}
			for _, seg := range standardSegments(t) {
				if last := stats.Slots[seg[1]]; last.Audited < stats.Functions {
					t.Errorf("slot %d closes a segment and audited %d of %d replays", seg[1], last.Audited, stats.Functions)
				}
			}
		})
	}
}

// TestPipelineChangeDropsMemo: a state built for another pipeline of the
// same segment shape replays nothing.
func TestPipelineChangeDropsMemo(t *testing.T) {
	other := slices.Clone(passes.StandardPipeline)
	other[slices.Index(other, "licm")] = "strength"
	d1 := newDriver(t, core.Options{Policy: core.Stateful})
	st, _, err := d1.Run(build(t, unitSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	d2 := newDriver(t, core.Options{Policy: core.Stateful, Pipeline: other})
	m := build(t, unitSrc)
	_, stats, err := d2.Run(m, st)
	if err != nil {
		t.Fatal(err)
	}
	if n := replayed(stats); n != 0 {
		t.Errorf("replayed %d executions from another pipeline's memo", n)
	}
	want := build(t, unitSrc)
	if _, _, err := newDriver(t, core.Options{Pipeline: other}).Run(want, nil); err != nil {
		t.Fatal(err)
	}
	if m.String() != want.String() {
		t.Error("IR differs from the stateless compile of the new pipeline")
	}
}

// BenchmarkFreshCompileMega compiles every megarepo unit the way a fresh
// process does — frontend, dormancy records decoded from their encoding
// (no memo), the pipeline — on the stateful policy, which records the memo
// ("record"), and on Records alone, which keeps no segments ("none"): the
// difference is what recording costs a compile that cannot replay.
func BenchmarkFreshCompileMega(b *testing.B) {
	snap := workload.Generate(workload.MegaProfile())
	units := snap.Units()
	d, err := core.NewDriver(core.Options{Policy: core.Stateful})
	if err != nil {
		b.Fatal(err)
	}
	records, err := core.NewDriver(core.Options{Policy: core.Records})
	if err != nil {
		b.Fatal(err)
	}
	encs := make([][]byte, len(units))
	for i, u := range units {
		m, err := compiler.Frontend(u, snap[u])
		if err != nil {
			b.Fatal(err)
		}
		st, _, err := d.Run(m, nil)
		if err != nil {
			b.Fatal(err)
		}
		encs[i] = state.Marshal(st)
	}
	for _, c := range []struct {
		name string
		d    *core.Driver
	}{{"record", d}, {"none", records}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, u := range units {
					m, err := compiler.Frontend(u, snap[u])
					if err != nil {
						b.Fatal(err)
					}
					st, err := state.DecodeBytes(encs[j])
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := c.d.Run(m, st); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

package core_test

import (
	"strings"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/state"
	"statefulcc/internal/testutil"
)

const unitSrc = `
var _counter int = 0;
func _bump(x int) int { _counter += x; return _counter; }

func hot(n int, a int, b int) int {
    var acc int = 0;
    for var i int = 0; i < n; i++ {
        acc += a * b + i;
    }
    return acc;
}

func helper(x int) int {
    if x > 10 { return x - 10; }
    return x + 10;
}

func main() int {
    var t int = 0;
    for var i int = 0; i < 4; i++ {
        t += hot(i, 2, 3) + helper(i * 7) + _bump(1);
    }
    print("t", t);
    return t % 128;
}
`

// editedSrc is unitSrc with a one-constant change inside helper — the
// paper's canonical "minor change" incremental-build scenario.
var editedSrc = strings.Replace(unitSrc, "return x + 10;", "return x + 11;", 1)

func build(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := testutil.BuildModule("unit.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// loaded is st as a fresh process loads it from its file: the dormancy
// records, and no segment memo.
func loaded(t *testing.T, st *core.UnitState) *core.UnitState {
	t.Helper()
	got, err := state.DecodeBytes(state.Marshal(st))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// replayed sums the executions segment replays avoided.
func replayed(s *core.Stats) int {
	n := 0
	for _, sl := range s.Slots {
		n += sl.Replayed
	}
	return n
}

func newDriver(t *testing.T, opts core.Options) *core.Driver {
	t.Helper()
	d, err := core.NewDriver(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStatefulMatchesStatelessOutput is the central correctness property:
// compiling with dormant-pass skipping must produce byte-identical IR to
// the conventional stateless pipeline, on the first build, on an identical
// rebuild, and after an edit.
func TestStatefulMatchesStatelessOutput(t *testing.T) {
	stateless := newDriver(t, core.Options{Policy: core.Stateless})
	stateful := newDriver(t, core.Options{Policy: core.Stateful, VerifyIR: true})

	var st *core.UnitState
	for round, src := range []string{unitSrc, unitSrc, editedSrc, unitSrc} {
		mBase := build(t, src)
		if _, _, err := stateless.Run(mBase, nil); err != nil {
			t.Fatal(err)
		}
		mStateful := build(t, src)
		var err error
		st, _, err = stateful.Run(mStateful, st)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mStateful.String(), mBase.String(); got != want {
			t.Fatalf("round %d: stateful output differs from stateless\n--- stateful ---\n%s\n--- stateless ---\n%s",
				round, got, want)
		}
	}
}

// TestSecondBuildSkips: an identical rebuild must skip every pass that was
// dormant, and skip at least something substantial.
func TestSecondBuildSkips(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful})

	m1 := build(t, unitSrc)
	st, s1, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, dormant1, skipped1 := s1.Totals()
	if skipped1 != 0 {
		t.Errorf("cold build skipped %d passes; want 0", skipped1)
	}
	if dormant1 == 0 {
		t.Error("cold build observed no dormant passes; pipeline too small?")
	}

	m2 := build(t, unitSrc)
	_, s2, err := d.Run(m2, loaded(t, st))
	if err != nil {
		t.Fatal(err)
	}
	_, _, skipped2 := s2.Totals()
	if skipped2 == 0 {
		t.Fatal("identical rebuild skipped nothing")
	}
	// Every pass dormant in build 1 must be skipped in build 2 (the IR at
	// each slot is identical by determinism): skipped2 >= dormant1 minus
	// module-pass dormancy that cannot be skipped when the module hash
	// moved (it didn't — source identical), so equality is expected.
	if skipped2 < dormant1 {
		t.Errorf("rebuild skipped %d < %d dormant observations", skipped2, dormant1)
	}
	if s2.DormantFraction() < 0.5 {
		t.Errorf("dormant fraction %.2f unexpectedly low", s2.DormantFraction())
	}

	// The state build 1 left in memory also holds its segment outputs: an
	// identical rebuild replays every function slot and runs only the
	// module slots, to the same IR.
	m3 := build(t, unitSrc)
	_, s3, err := d.Run(m3, st)
	if err != nil {
		t.Fatal(err)
	}
	for i, sl := range s3.Slots {
		if !sl.Module && (sl.Replayed != s3.Functions || sl.Runs+sl.Skipped != 0) {
			t.Errorf("slot %d: replayed %d, runs %d, skipped %d of %d functions; want all replayed",
				i, sl.Replayed, sl.Runs, sl.Skipped, s3.Functions)
		}
	}
	if m3.String() != m2.String() {
		t.Error("the replayed rebuild's IR differs from the dormancy rebuild's")
	}
}

// TestGuardedSkipsAuditSound: with the sentinel checking every skip, the
// stateful policy must have no unsound skip across an edit sequence.
func TestGuardedSkipsAuditSound(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful, AuditRate: 1, VerifyIR: true})
	var st *core.UnitState
	var err error
	audited := 0
	for _, src := range []string{unitSrc, unitSrc, editedSrc, editedSrc, unitSrc} {
		m := build(t, src)
		var stats *core.Stats
		st, stats, err = d.Run(m, st)
		if err != nil {
			t.Fatal(err)
		}
		a, unsound := stats.SentinelTotals()
		if unsound != 0 {
			t.Errorf("%d unsound skips under the guarded policy", unsound)
		}
		audited += a
	}
	if audited == 0 {
		t.Error("the sentinel audited no skip; the sequence never skipped")
	}
}

// TestEditLocalizesReruns: after editing one function, the untouched
// functions' dormant passes stay skipped.
func TestEditLocalizesReruns(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful})
	m1 := build(t, unitSrc)
	st, _, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild twice: once identical (baseline skips), once edited.
	mSame := build(t, unitSrc)
	_, sSame, err := d.Run(mSame, loaded(t, st))
	if err != nil {
		t.Fatal(err)
	}
	mEdit := build(t, editedSrc)
	_, sEdit, err := d.Run(mEdit, loaded(t, st))
	if err != nil {
		t.Fatal(err)
	}
	_, _, skippedSame := sSame.Totals()
	_, _, skippedEdit := sEdit.Totals()
	if skippedEdit == 0 {
		t.Fatal("edited rebuild skipped nothing — unrelated functions should still skip")
	}
	if skippedEdit >= skippedSame {
		t.Errorf("edited rebuild skipped %d >= identical rebuild %d; edit should cost some skips",
			skippedEdit, skippedSame)
	}

	// Resident, the untouched functions replay and the edited one runs.
	_, rEdit, err := d.Run(build(t, editedSrc), st)
	if err != nil {
		t.Fatal(err)
	}
	if n := replayed(rEdit); n == 0 || n >= len(rEdit.Slots)*rEdit.Functions {
		t.Errorf("resident edited rebuild replayed %d executions; want the untouched functions' only", n)
	}
}

// TestPipelineChangeInvalidatesState: state built for one pipeline must not
// be consulted for another.
func TestPipelineChangeInvalidatesState(t *testing.T) {
	d1 := newDriver(t, core.Options{Policy: core.Stateful, Pipeline: passes.StandardPipeline})
	m := build(t, unitSrc)
	st, _, err := d1.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Compatible(passes.StandardPipeline) {
		t.Fatal("state incompatible with its own pipeline")
	}
	if st.Compatible(passes.QuickPipeline) {
		t.Fatal("state claims compatibility with a different pipeline")
	}
	d2 := newDriver(t, core.Options{Policy: core.Stateful, Pipeline: passes.QuickPipeline})
	m2 := build(t, unitSrc)
	st2, stats, err := d2.Run(m2, st)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == st {
		t.Error("driver reused incompatible state")
	}
	if _, _, skipped := stats.Totals(); skipped != 0 {
		t.Errorf("skipped %d passes using incompatible state", skipped)
	}
}

// TestStatePruning: deleting a function removes its records.
func TestStatePruning(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful})
	srcTwo := `func a() int { return 1; } func main() int { return a(); }`
	srcOne := `func main() int { return 1; }`
	m1 := build(t, srcTwo)
	st, _, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Funcs["a"]; !ok {
		t.Fatal("no record for function a after first build")
	}
	m2 := build(t, srcOne)
	st, _, err = d.Run(m2, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Funcs["a"]; ok {
		t.Error("records for deleted function a survived pruning")
	}
}

// TestNewFunctionRunsFully: a function added in an incremental build has no
// records and must run the full pipeline (no skips for it).
func TestNewFunctionRunsFully(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful, AuditRate: 1})
	src1 := `func main() int { return 1; }`
	src2 := `func fresh(x int) int { return x * 3; } func main() int { return fresh(2); }`
	m1 := build(t, src1)
	st, _, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := build(t, src2)
	_, stats, err := d.Run(m2, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, unsound := stats.SentinelTotals(); unsound != 0 {
		t.Errorf("%d unsound skips on a new-function build", unsound)
	}
}

// TestHashReuseAcrossDormantRun: the fingerprint cache must make a fully
// dormant rebuild cheap — the number of hashes is bounded by roughly one
// per function plus one per active pass, not #slots × #functions.
func TestHashReuseAcrossDormantRun(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful})
	m1 := build(t, unitSrc)
	st, _, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := build(t, unitSrc)
	_, stats, err := d.Run(m2, st)
	if err != nil {
		t.Fatal(err)
	}
	funcs := len(m2.Funcs)
	runs, _, _ := stats.Totals()
	limit := funcs + runs + funcs*2 // generous: initial hash + rehash per active run
	if stats.Hashes > limit+len(passes.StandardPipeline) {
		t.Errorf("hashes = %d exceeds expected bound %d (funcs=%d, runs=%d)",
			stats.Hashes, limit, funcs, runs)
	}
}

// TestStatsMergeAndByPass exercises the aggregation helpers.
func TestStatsMergeAndByPass(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful})
	m := build(t, unitSrc)
	_, s1, err := d.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var agg core.Stats
	agg.Merge(s1)
	agg.Merge(s1)
	r1, _, _ := s1.Totals()
	r2, _, _ := agg.Totals()
	if r2 != 2*r1 {
		t.Errorf("merge: runs %d, want %d", r2, 2*r1)
	}
	by := agg.ByPass()
	if len(by) == 0 || by["mem2reg"].Runs == 0 {
		t.Errorf("ByPass aggregation broken: %+v", by)
	}
	if !strings.Contains(s1.String(), "mem2reg") {
		t.Error("stats String() missing pass rows")
	}
}

// TestDormantFractionMotivation reproduces the paper's motivating claim in
// miniature: on an incremental rebuild, a large majority of pass executions
// are dormant.
func TestDormantFractionMotivation(t *testing.T) {
	d := newDriver(t, core.Options{Policy: core.Stateful, AuditRate: 1})
	m1 := build(t, unitSrc)
	st, _, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := build(t, editedSrc)
	_, stats, err := d.Run(m2, st)
	if err != nil {
		t.Fatal(err)
	}
	if f := stats.DormantFraction(); f < 0.6 {
		t.Errorf("dormant fraction on incremental rebuild = %.2f; motivation expects most passes dormant", f)
	}
}

// TestDriverPrunesWhatDeadfuncDeletes: a pipeline holding deadfunc loses
// the never-called private functions before its first pass, under both
// policies, and records nothing for them; one without deadfunc keeps them.
func TestDriverPrunesWhatDeadfuncDeletes(t *testing.T) {
	src := unitSrc + `
func _orphan(x int) int { return helper(x) * 2; }
func _leaf(x int) int { return x + 1; }
func _root(x int) int { return _leaf(x) * 3; }
`
	// _orphan calls the public helper, so it shares main's component and
	// stays; the chain _root → _leaf goes.
	for _, policy := range []core.Policy{core.Stateless, core.Stateful} {
		d := newDriver(t, core.Options{Policy: policy})
		m := build(t, src)
		st, stats, err := d.Run(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pruned != 2 || stats.Functions != 5 {
			t.Errorf("%v: pruned %d of %d functions, want 2 of 7", policy, stats.Pruned, stats.Pruned+stats.Functions)
		}
		for _, name := range []string{"_root", "_leaf"} {
			if _, ok := st.Funcs[name]; ok {
				t.Errorf("%v: state holds records for pruned %s", policy, name)
			}
		}
	}
	d := newDriver(t, core.Options{Pipeline: passes.QuickPipeline, Policy: core.Stateful})
	_, stats, err := d.Run(build(t, src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned != 0 || stats.Functions != 7 {
		t.Errorf("quick pipeline: pruned %d of %d functions, want none", stats.Pruned, stats.Pruned+stats.Functions)
	}
}

package buildsys_test

// Concurrency correctness: the whole point of the parallel builder is that
// scheduling must be unobservable. These tests pin that down two ways —
// identical linked-program bytes across worker counts, and parallel-stateful
// vs stateless equivalence over edit histories of several workloads. All of
// them run clean under `go test -race`.

import (
	"fmt"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

func testProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: "buildsys-test", Seed: seed,
		Files: 6, FuncsPerFileMin: 2, FuncsPerFileMax: 5,
		StmtsPerFuncMin: 3, StmtsPerFuncMax: 8,
		GlobalsPerFile: 2, CrossFileCallFrac: 0.5, PrivateFrac: 0.4,
	}
}

// history returns a base snapshot plus a few commits.
func history(seed int64, commits int) []project.Snapshot {
	return oracletest.Stream(testProfile(seed), workload.StreamDefault, seed*13, commits)
}

// TestWorkerCountDeterminism: Workers ∈ {1,2,8} must produce identical
// linked programs and identical VM behaviour at every step of a history —
// each the stateless reference's.
func TestWorkerCountDeterminism(t *testing.T) {
	seq := history(31, 4)
	ref := oracletest.Reference(t, nil, seq...)
	for _, workers := range []int{1, 2, 8} {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		oracletest.Walk(t, seq, ref, oracletest.Candidate{
			Name: fmt.Sprintf("workers=%d", workers), Build: oracletest.Resident(b), Check: oracletest.Runs(t, ref),
		})
	}
}

// TestParallelStatefulMatchesSerialStateless: the stateful policy on a
// parallel pool must be indistinguishable — program bytes and behaviour —
// from the conventional serial compiler (oracletest.Reference, one worker)
// throughout an edit history.
func TestParallelStatefulMatchesSerialStateless(t *testing.T) {
	walkParallelStateful(t, 47)
}

// TestVerifyParallelBehaviour holds three more generated workloads to the
// same check.
func TestVerifyParallelBehaviour(t *testing.T) {
	for _, seed := range []int64{3, 17, 59} {
		walkParallelStateful(t, seed)
	}
}

// walkParallelStateful walks one workload's history on an 8-worker
// stateful builder against the serial stateless reference. Six commits,
// because none of seed 3's first five changes the program.
func walkParallelStateful(t *testing.T, seed int64) {
	t.Helper()
	seq := history(seed, 6)
	ref := oracletest.Reference(t, nil, seq...)
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	oracletest.Walk(t, seq, ref, oracletest.Candidate{
		Name: fmt.Sprintf("parallel stateful, seed %d", seed), Build: oracletest.Resident(b), Check: oracletest.Runs(t, ref),
	})
}

// TestIncrementalAccounting: unchanged units come from the cache, changed
// units recompile, and the union covers the snapshot.
func TestIncrementalAccounting(t *testing.T) {
	seq := history(9, 2)
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(seq[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnitsCompiled != len(seq[0]) || rep.UnitsCached != 0 {
		t.Errorf("cold build: compiled=%d cached=%d want %d/0", rep.UnitsCompiled, rep.UnitsCached, len(seq[0]))
	}
	for i, snap := range seq[1:] {
		changed := project.Diff(seq[i], snap)
		rep, err := b.Build(snap)
		if err != nil {
			t.Fatal(err)
		}
		if rep.UnitsCompiled != len(changed) {
			t.Errorf("build %d: compiled %d units, want %d (%v)", i+1, rep.UnitsCompiled, len(changed), changed)
		}
		if rep.UnitsCompiled+rep.UnitsCached != len(snap) {
			t.Errorf("build %d: accounting %d+%d != %d", i+1, rep.UnitsCompiled, rep.UnitsCached, len(snap))
		}
		for name, ur := range rep.Units {
			if ur.Compiled && ur.CompileNS <= 0 {
				t.Errorf("build %d: compiled unit %s has no compile time", i+1, name)
			}
		}
	}
}

// TestReportStatsMergedAcrossUnits: a cold stateful build must report
// pipeline statistics covering every unit, and Stats is never nil.
func TestReportStatsMergedAcrossUnits(t *testing.T) {
	snap := workload.Generate(testProfile(5))
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st == nil {
		t.Fatal("Stats returned nil")
	}
	if runs, _, _ := st.Totals(); runs == 0 {
		t.Error("cold build recorded no pass runs")
	}
	// A rebuild of the identical snapshot compiles nothing: stats must be
	// empty but still non-nil.
	rep2, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Stats() == nil {
		t.Fatal("cached rebuild Stats returned nil")
	}
	if runs, _, _ := rep2.Stats().Totals(); runs != 0 {
		t.Errorf("cached rebuild reports %d pass runs", runs)
	}
}

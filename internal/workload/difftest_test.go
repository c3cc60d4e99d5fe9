package workload_test

// Wide-seed differential sweep: the strongest whole-system correctness
// asset. For many random projects and commit histories, the linked program
// must be identical under every arm (oracletest.Arms), and run; and the stateful compiler's output IR must stay
// byte-identical to the stateless compiler's throughout the history.

import (
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

func TestWideSeedDifferential(t *testing.T) {
	seeds := []int64{111, 202, 303, 404, 505, 606, 707, 808, 909, 1010}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			// No edit of seed 101's stream reaches the linked program, and
			// none of seed 707's first four: they fold to the same constants
			// or add functions nothing calls. oracletest.Reference rejects
			// such a stream, so the sweep starts at 111 and walks five commits.
			stream := oracletest.Stream(smallProfile(seed), workload.StreamDefault, seed*7, 5)
			ref := oracletest.Reference(t, nil, stream...)
			var cands []oracletest.Candidate
			for _, mode := range oracletest.Arms {
				cands = append(cands, residentMode(t, mode.String(), buildsys.Options{Mode: mode}, oracletest.Runs(t, ref)))
			}
			oracletest.Walk(t, stream, ref, cands...)
		})
	}
}

// TestStatefulIRBitIdentical walks a history compiling every changed unit
// under both drivers and compares the final IR text — stronger than output
// equivalence, and the check that a replayed segment restores value IDs.
func TestStatefulIRBitIdentical(t *testing.T) {
	p := smallProfile(77)
	base := workload.Generate(p)
	hist := workload.GenerateHistory(base, 770, 5, workload.DefaultCommitOptions())

	stateless, err := core.NewDriver(core.Options{Policy: core.Stateless})
	if err != nil {
		t.Fatal(err)
	}
	stateful, err := core.NewDriver(core.Options{Policy: core.Stateful})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]*core.UnitState{}
	replayed := 0

	prev := project.Snapshot(nil)
	for bi, snap := range append([]project.Snapshot{base}, hist.Commits...) {
		for _, unit := range snap.Units() {
			if prev != nil {
				if old, ok := prev[unit]; ok && string(old) == string(snap[unit]) {
					continue
				}
			}
			m1, err := compiler.Frontend(unit, snap[unit])
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := stateless.Run(m1, nil); err != nil {
				t.Fatal(err)
			}
			m2, err := compiler.Frontend(unit, snap[unit])
			if err != nil {
				t.Fatal(err)
			}
			st, stats, err := stateful.Run(m2, states[unit])
			if err != nil {
				t.Fatal(err)
			}
			states[unit] = st
			for slot, sl := range stats.Slots {
				replayed += sl.Replayed
				if n := sl.Runs + sl.Skipped + sl.Replayed; !sl.Module && n != stats.Functions {
					t.Errorf("build %d unit %s slot %d: runs+skipped+replayed = %d of %d functions", bi, unit, slot, n, stats.Functions)
				}
			}
			if m1.String() != m2.String() {
				t.Fatalf("build %d unit %s: stateful IR differs from stateless", bi, unit)
			}
		}
		prev = snap
	}
	// The states stay in memory from commit to commit, as a resident
	// builder's do, so unchanged functions replay their segments: the
	// comparison above covers replayed IR too.
	if replayed == 0 {
		t.Error("no segment replayed over the stream; the check covered dormancy only")
	}
}

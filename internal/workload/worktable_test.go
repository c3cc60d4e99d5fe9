package workload_test

// The work table: what each of the four arms does over the benchmark's
// resident edit shapes, in counts, not milliseconds — pass runs, dormancy
// skips, replays, fingerprint hashes, the functions the frontend lowered
// and reused and the source bytes it lexed, and the functions whose code
// was generated and reused, summed over each build's deltas after a cold
// build. Counts do not move with the host, so the table holds the design's
// orderings and equalities, never golden numbers: both reuse bits run no
// more passes than either bit alone, and either bit no more than stateless;
// replay is the same with and without records; a replay carries its
// fingerprint, so both bits hash at most half of what records alone hash;
// only a resident builder's replaying arms reuse a function's frontend or
// its code, and on a wide pull they lower at most 35 % of the functions of
// the units they compile and reuse the code of at least 60 % of the
// functions of the objects they make; and a fresh builder per commit (a
// one-shot process) skips by its records alone, so it does the same work
// with and without the Replay bit.

import (
	"fmt"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// work is one arm's sums over a stream's commits.
type work struct {
	runs, skipped, replayed, hashes int64
	lowered, reused, lexed          int64
	compiled, codeReused            int64
}

// add folds in the counter deltas from before to after.
func (w *work) add(before, after map[string]int64) {
	w.runs += after[obs.CtrPassRuns] - before[obs.CtrPassRuns]
	w.skipped += after[obs.CtrPassSkipped] - before[obs.CtrPassSkipped]
	w.replayed += after[obs.CtrPassReplayed] - before[obs.CtrPassReplayed]
	w.hashes += after[obs.CtrHashes] - before[obs.CtrHashes]
	w.lowered += after[obs.CtrFuncsLowered] - before[obs.CtrFuncsLowered]
	w.reused += after[obs.CtrFuncsReused] - before[obs.CtrFuncsReused]
	w.lexed += after[obs.CtrBytesLexed] - before[obs.CtrBytesLexed]
	w.compiled += after[obs.CtrCodeCompiled] - before[obs.CtrCodeCompiled]
	w.codeReused += after[obs.CtrCodeReused] - before[obs.CtrCodeReused]
}

// workOf builds base and then every commit under mode, on one resident
// builder or on a fresh builder per commit over one state directory, and
// returns the commits' work.
func workOf(t *testing.T, base project.Snapshot, commits []project.Snapshot, mode compiler.Mode, fresh bool) work {
	t.Helper()
	opts := buildsys.Options{Mode: mode, Workers: 2, StateDir: t.TempDir(), HistoryPath: "-"}
	newBuilder := func() *buildsys.Builder {
		b, err := buildsys.NewBuilder(opts)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	build := func(b *buildsys.Builder, snap project.Snapshot) map[string]int64 {
		rep, err := b.Build(snap)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return rep.Metrics
	}
	b := newBuilder()
	before := build(b, base)
	var w work
	for _, snap := range commits {
		if fresh {
			b, before = newBuilder(), nil
		}
		after := build(b, snap)
		w.add(before, after)
		before = after
	}
	return w
}

// TestWorkTable runs the four arms over edit_loop's commit shape (2 units ×
// 2 edits) and wide_pull's (32 × 2) on the megarepo, at two seeds, resident
// and fresh, and holds their work to the design.
func TestWorkTable(t *testing.T) {
	const commits = 3
	base := workload.Generate(workload.MegaProfile())
	shapes := []struct {
		name  string
		shape workload.CommitOptions
	}{
		{"edit_loop", workload.DefaultCommitOptions()},
		{"wide_pull", workload.CommitOptions{Units: 32, EditsPerUnit: 2}},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-9s %-8s %-8s %-9s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n", "shape", "seed", "builder", "arm",
		"runs", "skipped", "replayed", "hashes", "lowered", "reused", "lexed", "codegen", "code-re")
	for _, sh := range shapes {
		for _, seed := range []int64{7, 20240917} {
			hist := workload.GenerateHistory(base, seed, commits, sh.shape).Commits
			for _, fresh := range []bool{false, true} {
				builder := "resident"
				if fresh {
					builder = "fresh"
				}
				w := map[compiler.Mode]work{}
				for _, mode := range oracletest.Arms {
					w[mode] = workOf(t, base, hist, mode, fresh)
					fmt.Fprintf(&table, "%-9s %-8d %-8s %-9v %8d %8d %8d %8d %8d %8d %8d %8d %8d\n", sh.name, seed, builder, mode,
						w[mode].runs, w[mode].skipped, w[mode].replayed, w[mode].hashes,
						w[mode].lowered, w[mode].reused, w[mode].lexed, w[mode].compiled, w[mode].codeReused)
				}
				at := fmt.Sprintf("%s, seed %d, %s", sh.name, seed, builder)
				both, rec, rep, none := w[core.Stateful], w[core.Records], w[core.Replay], w[core.Stateless]
				if both.runs > rec.runs || both.runs > rep.runs || rec.runs > none.runs || rep.runs > none.runs {
					t.Errorf("%s: pass runs stateful %d, records %d, replay %d, stateless %d; want both bits ≤ each bit ≤ stateless",
						at, both.runs, rec.runs, rep.runs, none.runs)
				}
				if both.replayed != rep.replayed {
					t.Errorf("%s: stateful replayed %d, replay alone %d", at, both.replayed, rep.replayed)
				}
				// Every arm compiles the same units, and only a resident
				// builder's replaying arms reuse a function's frontend or
				// its code.
				funcs, final := none.lowered+none.reused, none.compiled+none.codeReused
				for _, mode := range oracletest.Arms {
					wm := w[mode]
					if wm.lowered+wm.reused != funcs {
						t.Errorf("%s: %v lowered %d and reused %d functions, stateless %d in all", at, mode, wm.lowered, wm.reused, funcs)
					}
					if wm.compiled+wm.codeReused != final {
						t.Errorf("%s: %v generated code for %d functions and reused %d, stateless %d in all", at, mode, wm.compiled, wm.codeReused, final)
					}
					if (fresh || mode&core.Replay == 0) && (wm.reused != 0 || wm.codeReused != 0) {
						t.Errorf("%s: %v reused %d functions' frontend and %d functions' code, want none", at, mode, wm.reused, wm.codeReused)
					}
				}
				if !fresh {
					// A replay restores its output's fingerprint, so both
					// bits hash little beyond the functions that ran.
					if 2*both.hashes > rec.hashes {
						t.Errorf("%s: stateful hashed %d times, records alone %d; want at most half", at, both.hashes, rec.hashes)
					}
					if sh.name == "wide_pull" {
						for _, wm := range []work{both, rep} {
							if 100*wm.lowered > 35*funcs {
								t.Errorf("%s: a replaying arm lowered %d of %d functions, want at most 35 %%", at, wm.lowered, funcs)
							}
							if 100*wm.codeReused < 60*final {
								t.Errorf("%s: a replaying arm reused the code of %d of %d functions, want at least 60 %%", at, wm.codeReused, final)
							}
						}
					}
					continue
				}
				if rec.skipped == 0 {
					t.Errorf("%s: records skipped nothing", at)
				}
				if both.runs != rec.runs || both.skipped != rec.skipped || both.replayed != 0 {
					t.Errorf("%s: stateful ran %d, skipped %d, replayed %d; records ran %d, skipped %d; want equal runs and skips, 0 replays",
						at, both.runs, both.skipped, both.replayed, rec.runs, rec.skipped)
				}
			}
		}
	}
	t.Logf("work over %d commits after a cold build:\n%s", commits, table.String())
}

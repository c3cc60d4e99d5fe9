package buildsys_test

// A function that dies and comes back. The driver removes a private
// function nothing calls before the first pass (passes.PruneDeadFuncs) and
// keeps no dormancy records for it, so an incremental build sees a
// function's records vanish and, when a call comes back, a function with
// none. Errors of this kind show only in interleaved incremental builds
// (Lyu et al., PAPERS.md): this battery walks one function from live to
// pruned to live again through resident and per-commit builders.

import (
	"fmt"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
)

const pruneLib = `
var _scale int = 3;
func _helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i * i % 7; }
    return s;
}
func _kept(n int) int { return n * _scale; }
func work(n int) int { return _helper(n) + _kept(n); }
`

const pruneMain = `
extern func work(n int) int;
func main() int { print("work", work(6)); return work(3) % 100; }
`

// TestFunctionDiesAndComesBack builds three commits — _helper called,
// uncalled, called again — and holds every build to the driver's
// stateless reference and to the reference that prunes nothing.
func TestFunctionDiesAndComesBack(t *testing.T) {
	live := project.Snapshot{"lib.mc": []byte(pruneLib), "main.mc": []byte(pruneMain)}
	dead := live.Clone()
	dead["lib.mc"] = []byte(strings.Replace(pruneLib, "_helper(n) + _kept(n)", "n + _kept(n)", 1))
	stream := []project.Snapshot{live, dead, live.Clone()}
	ref := oracletest.Reference(t, nil, stream...)
	unpruned := oracletest.Unpruned(t, nil, stream...)
	wantPruned := []int{0, 1, 0}

	for _, workers := range []int{1, 2} {
		opts := buildsys.Options{Mode: compiler.ModeStateful, Workers: workers, AuditRate: 1, StateDir: t.TempDir()}
		resident, err := buildsys.NewBuilder(opts)
		if err != nil {
			t.Fatal(err)
		}
		perCommitOpts := opts
		perCommitOpts.StateDir = t.TempDir()
		perCommit := func(_ int, snap project.Snapshot) (*buildsys.Report, error) {
			b, err := buildsys.NewBuilder(perCommitOpts)
			if err != nil {
				return nil, err
			}
			return b.Build(snap)
		}
		check := func(name, stateDir string) func(int, *buildsys.Report) {
			return func(i int, rep *buildsys.Report) {
				t.Helper()
				if d := unpruned[i].Diff(rep.Program); d != "" {
					t.Fatalf("%s: commit %d: against the unpruned reference: %s", name, i, d)
				}
				if got := rep.Stats().Pruned; got != wantPruned[i] {
					t.Fatalf("%s: commit %d: %d functions pruned, want %d", name, i, got, wantPruned[i])
				}
				if n := rep.Metrics[obs.CtrStateIOErrors]; n != 0 || len(rep.Warnings) != 0 {
					t.Fatalf("%s: commit %d: state.io_error %d, warnings %q", name, i, n, rep.Warnings)
				}
				st, err := state.Load(buildsys.StatePath(stateDir, "lib.mc"))
				if err != nil {
					t.Fatalf("%s: commit %d: the state file does not load: %v", name, i, err)
				}
				_, helper := st.Funcs["_helper"]
				_, kept := st.Funcs["_kept"]
				if helper != (wantPruned[i] == 0) || !kept {
					t.Fatalf("%s: commit %d: state holds _helper %v, _kept %v", name, i, helper, kept)
				}
			}
		}
		cfg := fmt.Sprintf("workers=%d", workers)
		oracletest.Walk(t, stream, ref,
			oracletest.Candidate{Name: "resident " + cfg, Build: oracletest.Resident(resident), Check: check("resident "+cfg, opts.StateDir)},
			oracletest.Candidate{Name: "builder per commit " + cfg, Build: perCommit, Check: check("builder per commit "+cfg, perCommitOpts.StateDir)})
	}
}

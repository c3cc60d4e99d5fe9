package workload_test

// Differential mode-equivalence suite (the PR's headline correctness
// asset): for every standard-suite profile, the compilation policies must
// produce byte-identical bytecode — not just identical behaviour — across a
// cold build plus three incremental edits. The stateless build is the
// oracle; stateful, stateful with the soundness sentinel auditing every
// skip, and fullcache are the candidates whose skipping/caching must be
// invisible in the final program.

import (
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// modeEquivCandidates are the candidate builders compared against stateless.
var modeEquivCandidates = map[string]buildsys.Options{
	"stateful":       {Mode: compiler.ModeStateful},
	"stateful+audit": {Mode: compiler.ModeStateful, AuditRate: 1},
	"fullcache":      {Mode: compiler.ModeFullCache},
}

func TestModeEquivalenceSuite(t *testing.T) {
	profiles := workload.StandardSuite()
	if testing.Short() {
		profiles = workload.QuickSuite()
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			base := workload.Generate(p)
			hist := workload.GenerateHistory(base, p.Seed^0x5eed, 3, workload.DefaultCommitOptions())
			seq := append([]project.Snapshot{base}, hist.Commits...)

			oracle, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless})
			if err != nil {
				t.Fatal(err)
			}
			candidates := map[string]*buildsys.Builder{}
			for name, opts := range modeEquivCandidates {
				b, err := buildsys.NewBuilder(opts)
				if err != nil {
					t.Fatal(err)
				}
				candidates[name] = b
			}

			for i, snap := range seq {
				rep, err := oracle.Build(snap)
				if err != nil {
					t.Fatalf("build %d stateless: %v", i, err)
				}
				want := codegen.DisassembleProgram(rep.Program)
				for name, b := range candidates {
					rep, err := b.Build(snap)
					if err != nil {
						t.Fatalf("build %d %s: %v", i, name, err)
					}
					got := codegen.DisassembleProgram(rep.Program)
					if got != want {
						t.Errorf("build %d: %s bytecode diverges from stateless (%d vs %d bytes of disassembly)",
							i, name, len(got), len(want))
					}
					if n := rep.Metrics[obs.CtrAuditUnsound]; n != 0 {
						t.Errorf("build %d: %s: %d unsound skips", i, name, n)
					}
				}
			}
		})
	}
}

// TestModeEquivalencePersistedState re-runs the history with stateful
// builders that persist dormancy records to disk and are recreated between
// commits — the CLI deployment model, where skips are driven by state
// written in an earlier process — and still demands byte-identical output.
func TestModeEquivalencePersistedState(t *testing.T) {
	p := workload.QuickSuite()[0]
	base := workload.Generate(p)
	hist := workload.GenerateHistory(base, p.Seed^0xd15c, 3, workload.DefaultCommitOptions())
	seq := append([]project.Snapshot{base}, hist.Commits...)
	stateDir := t.TempDir()

	oracle, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range seq {
		rep, err := oracle.Build(snap)
		if err != nil {
			t.Fatalf("build %d stateless: %v", i, err)
		}
		want := codegen.DisassembleProgram(rep.Program)

		// Fresh builder per commit: only the on-disk state carries over.
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: stateDir})
		if err != nil {
			t.Fatal(err)
		}
		srep, err := b.Build(snap)
		if err != nil {
			t.Fatalf("build %d stateful: %v", i, err)
		}
		if got := codegen.DisassembleProgram(srep.Program); got != want {
			t.Errorf("build %d: persisted-state stateful bytecode diverges from stateless", i)
		}
	}
}

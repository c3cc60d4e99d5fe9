package workload_test

// Differential mode-equivalence suite (the PR's headline correctness
// asset): for every standard-suite profile, the compilation policies must
// produce byte-identical bytecode — not just identical behaviour — across a
// cold build plus five incremental edits (mathkit's first four leave the
// program as it was). A fresh stateless build of each snapshot is the
// oracle (oracletest.Reference); every arm (oracletest.Arms), and stateful
// with the soundness sentinel auditing every skip, are the candidates whose
// skipping and replay must be invisible in the final program.

import (
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

func TestModeEquivalenceSuite(t *testing.T) {
	profiles := workload.StandardSuite()
	if testing.Short() {
		profiles = workload.QuickSuite()
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			stream := oracletest.Stream(p, workload.StreamDefault, p.Seed^0x5eed, 5)
			cands := []oracletest.Candidate{residentMode(t, "stateful+audit",
				buildsys.Options{Mode: compiler.ModeStateful, AuditRate: 1}, nil)}
			for _, mode := range oracletest.Arms {
				cands = append(cands, residentMode(t, mode.String(), buildsys.Options{Mode: mode}, nil))
			}
			oracletest.Walk(t, stream, oracletest.Reference(t, nil, stream...), cands...)
		})
	}
}

// TestModeEquivalencePersistedState re-runs the history with builders of
// every arm that keeps dormancy records, which persist them to disk and are
// recreated between commits — the CLI deployment model, where skips are
// driven by state written in an earlier process — and still demands
// byte-identical output. Seven commits: the first program-changing edit of
// the stream is its seventh.
func TestModeEquivalencePersistedState(t *testing.T) {
	p := workload.QuickSuite()[0]
	stream := oracletest.Stream(p, workload.StreamDefault, p.Seed^0xd15c, 7)
	var cands []oracletest.Candidate
	for _, mode := range oracletest.Arms {
		if mode&core.Records == 0 {
			continue
		}
		stateDir := t.TempDir()
		cands = append(cands, oracletest.Candidate{
			Name: "persisted-state " + mode.String(),
			Build: func(_ int, snap project.Snapshot) (*buildsys.Report, error) {
				// Fresh builder per commit: only the on-disk state carries over.
				b, err := buildsys.NewBuilder(buildsys.Options{Mode: mode, StateDir: stateDir})
				if err != nil {
					return nil, err
				}
				return b.Build(snap)
			},
		})
	}
	oracletest.Walk(t, stream, oracletest.Reference(t, nil, stream...), cands...)
}

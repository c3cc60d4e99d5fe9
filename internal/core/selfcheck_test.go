package core_test

import (
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// TestSelfCheckHashesOverHistory compiles a generated edit history with a
// stateful driver that verifies the IR after every pass, and holds every
// unit of every commit to a stateless compile of the same source. A
// fingerprint that missed an IR change would let a stale dormancy record
// skip a pass that now matters, and the output would differ here. (The name
// is from when the driver also self-checked a per-block hash memo.)
func TestSelfCheckHashesOverHistory(t *testing.T) {
	p := workload.StandardSuite()[0]
	base := workload.Generate(p)
	hist := workload.GenerateHistory(base, p.Seed, 8, workload.DefaultCommitOptions())

	stateless := newDriver(t, core.Options{Policy: core.Stateless})
	stateful := newDriver(t, core.Options{Policy: core.Stateful, VerifyIR: true})

	states := map[string]*core.UnitState{}
	for ci, snap := range append([]project.Snapshot{base}, hist.Commits...) {
		for _, unit := range snap.Units() {
			src := string(snap[unit])
			ref := build(t, src)
			if _, _, err := stateless.Run(ref, nil); err != nil {
				t.Fatalf("commit %d unit %s stateless: %v", ci, unit, err)
			}
			m := build(t, src)
			st, _, err := stateful.Run(m, states[unit])
			if err != nil {
				t.Fatalf("commit %d unit %s stateful: %v", ci, unit, err)
			}
			states[unit] = st
			if got, want := m.String(), ref.String(); got != want {
				t.Fatalf("commit %d unit %s: stateful output differs from stateless",
					ci, unit)
			}
		}
	}
}

package footprint_test

// The differential soundness battery — the tentpole's acceptance proof.
//
// Oracle: a stateless builder compiling every snapshot from scratch
// (oracletest.Reference). For every suite profile × edit stream, an
// enforce-footprint stateful builder (persisting state to disk) must
// produce byte-identical linked programs at every commit, and honest builds must cross-check
// every cache decision with zero missed invalidations (TestFootprintGuard,
// `make footprint-guard`).
//
// The adversarial case: a lying invalidator (oracletest.LyingHook, an
// Options.ContentHashHook freezing each unit's first-seen hash) makes the declared channel claim
// "unchanged" forever. The very next build after an edit must flag the
// edited units as footprint.missed, and under enforcement the output must
// still match the stateless oracle — the traced footprint overrides the
// lie.
//
// A -race-gated stability check pins per-unit footprints identical across
// 1/4/16 workers: shared reads dedupe once per unit no matter the schedule.

import (
	"reflect"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/footprint"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

func TestDifferentialBattery(t *testing.T) {
	profiles := workload.QuickSuite()
	if !testing.Short() {
		profiles = append(profiles, workload.StandardSuite()[3]) // netstack
	}
	streams := []workload.StreamKind{
		workload.StreamDefault, workload.StreamRenameWave, workload.StreamInterfaceChurn,
	}
	for _, p := range profiles {
		for _, kind := range streams {
			p, kind := p, kind
			t.Run(p.Name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				stream := oracletest.Stream(p, kind, p.Seed*13, 4)
				enforced, err := buildsys.NewBuilder(buildsys.Options{
					Mode: compiler.ModeStateful, StateDir: t.TempDir(),
					Footprint: true, EnforceFootprint: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				oracletest.Walk(t, stream, oracletest.Reference(t, nil, stream...), oracletest.Candidate{
					Name: "enforce-footprint", Build: oracletest.Resident(enforced),
					Check: func(i int, rep *buildsys.Report) {
						if len(rep.FootprintMissed) != 0 {
							t.Fatalf("commit %d: honest build reported missed invalidations: %v", i, rep.FootprintMissed)
						}
					},
				})
			})
		}
	}
}

// editedUnits lists the units whose bytes differ between two snapshots.
func editedUnits(a, b project.Snapshot) map[string]bool {
	out := map[string]bool{}
	for unit, src := range b {
		if old, ok := a[unit]; !ok || string(old) != string(src) {
			out[unit] = true
		}
	}
	return out
}

func TestLyingInvalidatorCaughtNextBuild(t *testing.T) {
	p := workload.QuickSuite()[0]
	snaps := oracletest.Stream(p, workload.StreamDefault, p.Seed*13, 2)
	base, edited := snaps[0], snaps[1]
	want := editedUnits(base, edited)
	if len(want) == 0 {
		t.Fatal("history edited nothing; the lie would be unobservable")
	}

	// Detection only (no enforcement): the missed invalidation must be
	// flagged on the very next build, and the stale object really served.
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: t.TempDir(),
		Footprint: true, ContentHashHook: oracletest.LyingHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(base); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(edited)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, u := range rep.FootprintMissed {
		flagged[u] = true
	}
	for u := range want {
		if !flagged[u] {
			t.Errorf("edited unit %s not flagged as missed invalidation (flagged: %v)", u, rep.FootprintMissed)
		}
	}
	m := b.Metrics()
	if m[obs.CtrFootprintMissed] == 0 {
		t.Fatal("footprint.missed counter is zero after a caught lie")
	}
	found := false
	for _, w := range rep.Warnings {
		if containsAll(w, "missed invalidation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no missed-invalidation warning surfaced: %v", rep.Warnings)
	}

	// Enforcement: same lie, but the output must match the stateless oracle
	// anyway — the footprint overrides the declared channel.
	e, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: t.TempDir(),
		Footprint: true, EnforceFootprint: true, ContentHashHook: oracletest.LyingHook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(base); err != nil {
		t.Fatal(err)
	}
	erep, err := e.Build(edited)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracletest.Reference(t, nil, edited)[0].Diff(erep.Program); d != "" {
		t.Fatalf("enforce-footprint build shipped a stale object despite the traced footprint: %s", d)
	}
	if len(erep.FootprintMissed) == 0 {
		t.Fatal("enforcement silently corrected the lie without flagging it")
	}
}

// TestFootprintGuard is the CI tripwire (`make footprint-guard`): honest
// suite builds with tracing on must cross-check cached units and produce
// zero missed invalidations and zero redundant recompiles — the declared
// channel and the traced ground truth must agree exactly.
func TestFootprintGuard(t *testing.T) {
	profiles := workload.QuickSuite()
	profiles = append(profiles, workload.StandardSuite()[2]) // mathkit
	if !testing.Short() {
		profiles = append(profiles, workload.MegaProfile())
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			snaps := oracletest.Stream(p, workload.StreamDefault, p.Seed*13, 3)
			b, err := buildsys.NewBuilder(buildsys.Options{
				Mode: compiler.ModeStateful, StateDir: t.TempDir(), Footprint: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, snap := range snaps {
				rep, err := b.Build(snap)
				if err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				if len(rep.FootprintMissed) != 0 || len(rep.FootprintRedundant) != 0 {
					t.Fatalf("commit %d: honest build disagreed with its own footprint: missed %v redundant %v",
						i, rep.FootprintMissed, rep.FootprintRedundant)
				}
			}
			m := b.Metrics()
			if m[obs.CtrFootprintChecked] == 0 {
				t.Fatal("footprint.checked is zero; the cross-check never ran and the guard is vacuous")
			}
			if m[obs.CtrFootprintMissed] != 0 || m[obs.CtrFootprintRedundant] != 0 {
				t.Fatalf("guard counters: checked %d missed %d redundant %d",
					m[obs.CtrFootprintChecked], m[obs.CtrFootprintMissed], m[obs.CtrFootprintRedundant])
			}
		})
	}
}

// TestFootprintWorkerStability pins per-unit footprints stable across
// worker counts: the trace dedupes shared observations once per unit
// regardless of schedule. Run under -race via `make race`.
func TestFootprintWorkerStability(t *testing.T) {
	p := workload.StandardSuite()[1] // parserlib: enough units to saturate 16 workers
	snap := workload.Generate(p)

	perWorkers := map[int]map[string]*footprint.Record{}
	for _, workers := range []int{1, 4, 16} {
		b, err := buildsys.NewBuilder(buildsys.Options{
			Mode: compiler.ModeStateful, StateDir: t.TempDir(),
			Footprint: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(snap); err != nil {
			t.Fatal(err)
		}
		perWorkers[workers] = b.Footprints()
	}

	ref := perWorkers[1]
	if len(ref) != len(snap) {
		t.Fatalf("baseline retained %d footprints for %d units", len(ref), len(snap))
	}
	for _, workers := range []int{4, 16} {
		got := perWorkers[workers]
		if len(got) != len(ref) {
			t.Fatalf("workers=%d retained %d footprints, want %d", workers, len(got), len(ref))
		}
		for unit, rref := range ref {
			rgot, ok := got[unit]
			if !ok {
				t.Fatalf("workers=%d missing footprint for %s", workers, unit)
			}
			if rgot.DeclaredHash != rref.DeclaredHash {
				t.Fatalf("workers=%d unit %s: declared hash drifted", workers, unit)
			}
			if !reflect.DeepEqual(rgot.Entries, rref.Entries) {
				t.Fatalf("workers=%d unit %s: footprint differs from single-worker baseline:\n%v\nvs\n%v",
					workers, unit, rgot.Entries, rref.Entries)
			}
			// The build system records no advisory entry: a unit's state
			// load is an input to the optimizer, not to the output.
			for _, e := range rgot.Entries {
				if e.Kind.Advisory() {
					t.Fatalf("workers=%d unit %s: advisory entry %s %s", workers, unit, e.Kind, e.Name)
				}
			}
		}
	}
}

func containsAll(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package buildsys_test

// Scheduling-timeline invariants (docs/OBSERVABILITY.md): every build's
// recorded timeline must validate, cover exactly the snapshot's units, and
// support a critical-path analysis whose total is sandwiched between the
// longest single unit and the measured wall time — at 1, 4, and 16 workers,
// under the race detector (the events slice is written concurrently by the
// pool).

import (
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	histpkg "statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

func TestTimelineInvariants(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seq := history(7, 4)
			b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, snap := range seq {
				rep, err := b.Build(snap)
				if err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
				tl := rep.Timeline
				if tl == nil {
					t.Fatalf("build %d: no timeline recorded", i)
				}
				if err := tl.Validate(); err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
				if tl.Workers != workers {
					t.Errorf("build %d: timeline workers = %d, want %d", i, tl.Workers, workers)
				}

				// One event per unit in the snapshot, partitioned exactly as
				// the report says.
				if len(tl.Events) != len(snap) {
					t.Errorf("build %d: %d events, want %d (one per unit)", i, len(tl.Events), len(snap))
				}
				if got := tl.Compiled(); got != rep.UnitsCompiled {
					t.Errorf("build %d: %d scheduled events, report compiled %d", i, got, rep.UnitsCompiled)
				}
				if skips := len(tl.Events) - tl.Compiled(); skips != rep.UnitsCached {
					t.Errorf("build %d: %d skip events, report cached %d", i, skips, rep.UnitsCached)
				}

				// Critical path total: at least the longest single unit, at
				// most the compile phase wall, which is at most the build wall.
				cp := obs.Analyze(tl)
				if cp.TotalNS > tl.CompileWallNS {
					t.Errorf("build %d: critical total %dns exceeds compile wall %dns", i, cp.TotalNS, tl.CompileWallNS)
				}
				if tl.CompileWallNS > tl.WallNS {
					t.Errorf("build %d: compile wall %dns exceeds build wall %dns", i, tl.CompileWallNS, tl.WallNS)
				}
				if cp.PathNS > cp.TotalNS {
					t.Errorf("build %d: chain compile %dns exceeds chain extent %dns", i, cp.PathNS, cp.TotalNS)
				}
				if rep.UnitsCompiled > 0 {
					if len(cp.Chain) == 0 {
						t.Errorf("build %d: compiled %d units but chain is empty", i, rep.UnitsCompiled)
					}
					if cp.LongestUnitNS <= 0 || cp.TotalNS < cp.LongestUnitNS {
						t.Errorf("build %d: critical total %dns below longest unit %dns",
							i, cp.TotalNS, cp.LongestUnitNS)
					}
				} else if len(cp.Chain) != 0 {
					t.Errorf("build %d: nothing compiled but chain has %d links", i, len(cp.Chain))
				}
			}
		})
	}
}

// TestTimelineDeterministicChain pins the analysis, not the scheduler: two
// fresh single-worker builders over the same snapshot must produce the same
// critical-path unit sequence, because a serial schedule is deterministic
// and Analyze breaks every tie on unit name.
func TestTimelineDeterministicChain(t *testing.T) {
	seq := history(11, 0)
	chains := make([][]string, 2)
	for r := range chains {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Build(seq[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range obs.Analyze(rep.Timeline).Chain {
			chains[r] = append(chains[r], l.Unit)
		}
	}
	if len(chains[0]) == 0 {
		t.Fatal("empty critical chain on a cold build")
	}
	if fmt.Sprint(chains[0]) != fmt.Sprint(chains[1]) {
		t.Errorf("serial schedules produced different chains:\n%v\n%v", chains[0], chains[1])
	}
}

// TestTimelineIncrementalSkips checks the skip events: an unchanged rebuild
// schedules nothing and records every unit as an unscheduled cache skip.
func TestTimelineIncrementalSkips(t *testing.T) {
	seq := history(5, 0)
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(seq[0]); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(seq[0])
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.UnitsCompiled != 0 || tl.Compiled() != 0 {
		t.Fatalf("unchanged rebuild compiled %d units (%d scheduled events)", rep.UnitsCompiled, tl.Compiled())
	}
	if len(tl.Events) != len(seq[0]) || len(tl.Events) != rep.UnitsCached {
		t.Errorf("%d skip events, want %d (= %d cached)", len(tl.Events), len(seq[0]), rep.UnitsCached)
	}
	for i := range tl.Events {
		if e := &tl.Events[i]; e.Outcome != obs.OutcomeSkip || e.Scheduled() {
			t.Errorf("%s: outcome %q on worker %d, want unscheduled skip", e.Unit, e.Outcome, e.Worker)
		}
	}
	if cp := obs.Analyze(tl); len(cp.Chain) != 0 {
		t.Errorf("fully cached build produced a %d-link chain", len(cp.Chain))
	}
}

// TestRecordSizedByWork: the flight recorder persists what a build did. A
// 2-unit edit of a 120-unit project leaves a record with two timeline events
// and two units in its table, a cold build one with an event and an entry per
// unit, and the build's own report (Report.Timeline, Report.Units) keeps one
// of each per unit either way. Nothing a reader
// uses goes missing: the persisted timeline validates and analyzes to the
// same critical path as the full one.
func TestRecordSizedByWork(t *testing.T) {
	p := testProfile(5)
	p.Files, p.FuncsPerFileMax, p.StmtsPerFuncMax = 120, 3, 5
	base := workload.Generate(p)
	edited, _ := workload.NewEditor(9).Commit(base, workload.CommitOptions{Units: 2})

	dir := t.TempDir()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var reps []*buildsys.Report
	for _, snap := range []project.Snapshot{base, edited} {
		rep, err := b.Build(snap)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if cold, warm := reps[0], reps[1]; cold.UnitsCompiled != len(base) || warm.UnitsCompiled != 2 {
		t.Fatalf("case is wrong about itself: cold build compiled %d of %d, edit compiled %d, want all and 2",
			cold.UnitsCompiled, len(base), warm.UnitsCompiled)
	}
	recs, err := histpkg.Load(histpkg.Path(dir))
	if err != nil || len(recs) != 2 {
		t.Fatalf("%d records, err %v; want 2", len(recs), err)
	}

	for i, rec := range recs {
		rep := reps[i]
		if len(rep.Timeline.Events) != len(base) {
			t.Errorf("build %d: Report.Timeline has %d events, want one per unit (%d)", i, len(rep.Timeline.Events), len(base))
		}
		var scheduled []string
		for _, e := range rep.Timeline.Events {
			if e.Scheduled() {
				scheduled = append(scheduled, e.Unit)
			}
		}
		var persisted []string
		for _, e := range rec.Timeline.Events {
			persisted = append(persisted, e.Unit)
		}
		if !slices.Equal(persisted, scheduled) || len(persisted) != rep.UnitsCompiled {
			t.Errorf("build %d: record has events for %v, want the %d scheduled units %v", i, persisted, rep.UnitsCompiled, scheduled)
		}
		if rec.UnitsCached != len(base)-len(persisted) || len(rec.Units) != len(persisted) || len(rep.Units) != len(base) {
			t.Errorf("build %d: units_cached %d, %d units in the record's table, %d in the report's; want %d, %d and %d",
				i, rec.UnitsCached, len(rec.Units), len(rep.Units), len(base)-len(persisted), len(persisted), len(base))
		}
		for _, name := range persisted {
			if _, ok := rec.Units[name]; !ok {
				t.Errorf("build %d: the record has an event for %s and no entry in its table", i, name)
			}
		}
		tl := rec.Timeline.ToObs()
		if err := tl.Validate(); err != nil {
			t.Errorf("build %d: persisted timeline: %v", i, err)
		}
		if got, want := obs.Analyze(tl), obs.Analyze(rep.Timeline); !reflect.DeepEqual(got, want) {
			t.Errorf("build %d: persisted timeline analyzes to\n%+v\nthe build's own to\n%+v", i, got, want)
		}
	}

	// Against the shape records had at first: the same record with a "skip"
	// event and a table entry for every cached unit.
	slim := recs[1]
	old, oldTL := slim, *slim.Timeline
	old.Timeline, oldTL.Events = &oldTL, nil
	old.Units = maps.Clone(slim.Units)
	for name, ur := range reps[1].Units {
		if !ur.Compiled {
			old.Units[name] = histpkg.UnitRecord{Cached: true}
		}
	}
	for _, e := range reps[1].Timeline.Events {
		oldTL.Events = append(oldTL.Events, histpkg.TimelineEvent{
			Unit: e.Unit, Worker: e.Worker, Outcome: e.Outcome, EnqueueNS: e.EnqueueNS, StartNS: e.StartNS, EndNS: e.EndNS,
			FrontendNS: e.FrontendNS, PassesNS: e.PassesNS, CodegenNS: e.CodegenNS})
	}
	slimLine, err1 := slim.Encode()
	oldLine, err2 := old.Encode()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	t.Logf("2-unit edit of %d units: record %d bytes, %d with an event and an entry per unit", len(base), len(slimLine), len(oldLine))
	if limit := len(oldLine) * 6 / 10; len(slimLine) > limit {
		t.Errorf("record is %d bytes, want at most %d (0.6 × %d with an event and an entry per unit)", len(slimLine), limit, len(oldLine))
	}
}

// TestRecordBytes holds the two record sizes the edit loop's cost follows —
// every append decodes the whole file — on the megarepo: a 2-unit edit wrote
// 14.2 KiB and a 208-unit compile 559 KiB when a record had an entry for
// every unit and a pass name and a reason in every decision row.
func TestRecordBytes(t *testing.T) {
	base := workload.Generate(workload.MegaProfile())
	edited, _ := workload.NewEditor(9).Commit(base, workload.CommitOptions{Units: 2})
	dir := t.TempDir()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []struct {
		snap     project.Snapshot
		compiled int
		maxKiB   float64
	}{{base, len(base), 380}, {edited, 2, 7}} {
		if err := os.Remove(histpkg.Path(dir)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		rep, err := b.Build(build.snap)
		if err != nil || rep.UnitsCompiled != build.compiled {
			t.Fatalf("compiled %d units, err %v; want %d", rep.UnitsCompiled, err, build.compiled)
		}
		line, err := os.ReadFile(histpkg.Path(dir))
		if err != nil {
			t.Fatal(err)
		}
		kib := float64(len(line)) / 1024
		t.Logf("%d of %d units compiled: record %.1f KiB", build.compiled, len(base), kib)
		if kib > build.maxKiB {
			t.Errorf("a build compiling %d of %d units wrote a record of %.1f KiB, want at most %.0f", build.compiled, len(base), kib, build.maxKiB)
		}
	}
}

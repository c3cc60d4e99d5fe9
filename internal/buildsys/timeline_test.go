package buildsys_test

// Scheduling-timeline invariants (docs/OBSERVABILITY.md): every build's
// recorded timeline must validate, cover exactly the units that occupied a
// worker, and support a critical-path analysis whose total is sandwiched between the
// longest single unit and the measured wall time — at 1, 4, and 16 workers,
// under the race detector (the results the events are taken from are written
// concurrently by the pool).

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	histpkg "statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
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
				if err := tl.Validate(rep.Workers, rep.TotalNS, rep.CompileNS, rep.LinkNS); err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
				if rep.Workers != workers {
					t.Errorf("build %d: record workers = %d, want %d", i, rep.Workers, workers)
				}

				// One event per compiled unit, each listed in the record.
				if len(tl.Events) != rep.UnitsCompiled {
					t.Errorf("build %d: %d events, report compiled %d", i, len(tl.Events), rep.UnitsCompiled)
				}
				for _, e := range tl.Events {
					if rep.Unit(e.Unit).Cached {
						t.Errorf("build %d: event for %s, which the record says was cached", i, e.Unit)
					}
				}

				// Critical path total: at least the longest single unit, at
				// most the compile phase wall, which is at most the build wall.
				cp := obs.Analyze(tl, rep.Workers, rep.CompileNS)
				if cp.TotalNS > rep.CompileNS {
					t.Errorf("build %d: critical total %dns exceeds compile wall %dns", i, cp.TotalNS, rep.CompileNS)
				}
				if rep.CompileNS > rep.TotalNS {
					t.Errorf("build %d: compile wall %dns exceeds build wall %dns", i, rep.CompileNS, rep.TotalNS)
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
		for _, l := range obs.Analyze(rep.Timeline, rep.Workers, rep.CompileNS).Chain {
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

// TestTimelineIncrementalSkips checks the cache skips: an unchanged rebuild
// schedules nothing, so its timeline has no event and its record lists no
// unit, and the skips are counted and timed all the same.
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
	if err := tl.Validate(rep.Workers, rep.TotalNS, rep.CompileNS, rep.LinkNS); err != nil {
		t.Fatal(err)
	}
	if rep.UnitsCompiled != 0 || len(tl.Events) != 0 || len(rep.Units) != 0 {
		t.Fatalf("unchanged rebuild compiled %d units, %d events, %d units listed", rep.UnitsCompiled, len(tl.Events), len(rep.Units))
	}
	if rep.UnitsCached != len(seq[0]) || rep.CachedDigest != histpkg.CachedDigest(seq[0].Units()) {
		t.Errorf("%d cached, digest %q; want all %d units", rep.UnitsCached, rep.CachedDigest, len(seq[0]))
	}
	for _, name := range seq[0].Units() {
		if u := rep.Unit(name); !u.Cached || u.Remote || u.Passes != nil {
			t.Errorf("%s: %+v, want cached", name, u)
		}
	}
	if n := b.Histograms()[obs.HistSkipDecisionNS].Count; n != int64(2*len(seq[0])) {
		t.Errorf("%d skip decisions timed over two builds, want %d", n, 2*len(seq[0]))
	}
	if cp := obs.Analyze(tl, rep.Workers, rep.CompileNS); len(cp.Chain) != 0 {
		t.Errorf("fully cached build produced a %d-link chain", len(cp.Chain))
	}
}

// TestRecordSizedByWork: a build's report is sized by what the build did. A
// 2-unit edit of a 120-unit project has two timeline events and two units in
// its table, a cold build an event and an entry per unit, and the history
// file holds the report's record as it is.
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
	for i, snap := range []project.Snapshot{base, edited} {
		rep, err := b.Build(snap)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{len(base), 2}[i]
		if rep.UnitsCompiled != want || len(rep.Units) != want || len(rep.Timeline.Events) != want {
			t.Errorf("build %d: %d compiled, %d units listed, %d events; want %d each",
				i, rep.UnitsCompiled, len(rep.Units), len(rep.Timeline.Events), want)
		}
		for _, e := range rep.Timeline.Events {
			if _, ok := rep.Units[e.Unit]; !ok {
				t.Errorf("build %d: an event for %s and no entry in the table", i, e.Unit)
			}
		}
		reps = append(reps, rep)
	}
	recs, err := histpkg.Load(histpkg.Path(dir))
	if err != nil || len(recs) != 2 {
		t.Fatalf("%d records, err %v; want 2", len(recs), err)
	}
	for i := range recs {
		if !reflect.DeepEqual(&recs[i], &reps[i].Record) {
			t.Errorf("build %d: the history holds\n%+v\nthe report\n%+v", i, recs[i], reps[i].Record)
		}
	}

	// Against the shape records had at first: the same record with a "skip"
	// event and a table entry for every cached unit.
	slim := &reps[1].Record
	slimLine, err := slim.Encode()
	if err != nil {
		t.Fatal(err)
	}
	oldLine, err := firstShape(t, slim, edited, passes.StandardPipeline).Encode()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2-unit edit of %d units: record %d bytes, %d with an event and an entry per unit", len(base), len(slimLine), len(oldLine))
	if limit := len(oldLine) * 6 / 10; len(slimLine) > limit {
		t.Errorf("record is %d bytes, want at most %d (0.6 × %d with an event and an entry per unit)", len(slimLine), limit, len(oldLine))
	}
}

// TestRecordBytes holds the two record sizes the edit loop's cost follows —
// every append decodes the whole file — on the megarepo: a 2-unit edit wrote
// 14.2 KiB and a 208-unit compile 559 KiB when a record had an entry for
// every unit and a pass name and a reason in every decision row, and about 3.6 and
// 279 KiB while every row still wrote its slot.
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
		// A decision row's slot is its index and its pass is named by the
		// record's pipeline: a row writes neither.
		if bytes.Contains(line, []byte(`"slot":`)) || bytes.Contains(line, []byte(`"pass":`)) {
			t.Errorf("a build compiling %d of %d units wrote a slot or a pass name in a decision row", build.compiled, len(base))
		}
	}
}

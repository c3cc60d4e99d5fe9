package buildsys_test

// Observability-layer invariants under the worker pool. These tests run in
// the -race CI gate (Makefile `race` target): builds execute with tracing
// enabled at several worker counts, and the registry totals must be
// identical regardless of scheduling — a counter update lost to a data
// race shows up here as a cross-schedule mismatch even when -race itself
// stays quiet.

import (
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// obsProfile is big enough that a 4-worker pool genuinely interleaves.
func obsProfile() workload.Profile {
	return workload.Profile{
		Name: "obs", Seed: 7331,
		Files: 12, FuncsPerFileMin: 3, FuncsPerFileMax: 6,
		StmtsPerFuncMin: 4, StmtsPerFuncMax: 8,
		GlobalsPerFile: 2, CrossFileCallFrac: 0.4, PrivateFrac: 0.3,
	}
}

// schedulingInvariant are the counters that must not depend on worker
// interleaving: pure counts, no *_ns timing values.
var schedulingInvariant = []string{
	obs.CtrPassRuns,
	obs.CtrPassDormant,
	obs.CtrPassSkipped,
	obs.CtrHashes,
	obs.CtrFuncsPruned,
	obs.CtrBuilds,
	obs.CtrUnitsCompiled,
	obs.CtrUnitsCached,
	obs.CtrSourceBytesHashed,
	obs.CtrLinkObjectsChecked,
	obs.CtrHistoryTailReads,
	obs.CtrStateLoads,
	obs.CtrStateLoadMisses,
	obs.CtrStateSaves,
	obs.CtrStateSaveUnchanged,
	obs.CtrStateBytesWritten,
	obs.CtrDecCold,
	obs.CtrDecNotDormant,
	obs.CtrDecFPMismatch,
	obs.CtrDecPolicy,
}

// runHistory builds base + commits with a traced stateful builder and
// returns the final counters registry snapshot and all spans.
func runHistory(t *testing.T, workers int, base project.Snapshot, commits []project.Snapshot) (map[string]int64, []obs.Span) {
	t.Helper()
	tr := obs.NewTracer()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode:     compiler.ModeStateful,
		StateDir: t.TempDir(),
		Workers:  workers,
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range append([]project.Snapshot{base}, commits...) {
		if _, err := b.Build(snap); err != nil {
			t.Fatalf("workers=%d build %d: %v", workers, i, err)
		}
	}
	return b.Metrics(), tr.Spans()
}

// TestObsCountersSchedulingInvariant: the same commit history produces the
// same count-type counters no matter how many workers raced over it.
func TestObsCountersSchedulingInvariant(t *testing.T) {
	base := workload.Generate(obsProfile())
	hist := workload.GenerateHistory(base, 99, 3, workload.DefaultCommitOptions())

	ref, _ := runHistory(t, 1, base, hist.Commits)
	for _, workers := range []int{2, 4} {
		got, _ := runHistory(t, workers, base, hist.Commits)
		for _, name := range schedulingInvariant {
			if got[name] != ref[name] {
				t.Errorf("workers=%d: counter %s = %d, want %d (workers=1)",
					workers, name, got[name], ref[name])
			}
		}
	}
	if ref[obs.CtrPassSkipped] == 0 {
		t.Error("history produced no skipped passes; invariance check is vacuous")
	}
	if ref[obs.CtrStateBytesWritten] == 0 {
		t.Error("history wrote no state bytes; invariance check is vacuous")
	}
	if ref[obs.CtrFuncsPruned] == 0 {
		t.Error("history pruned no function; invariance check is vacuous")
	}
}

// TestHistoryAppendSpan: a traced resident build times its flight-recorder
// append, which Report.TotalNS leaves out, as one history.append span after
// the link.
func TestHistoryAppendSpan(t *testing.T) {
	tr := obs.NewTracer()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: t.TempDir(), Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Generate(obsProfile())
	hist := workload.GenerateHistory(base, 5, 1, workload.DefaultCommitOptions())
	if _, err := b.Build(base); err != nil {
		t.Fatal(err)
	}
	n := len(tr.Spans())
	if _, err := b.Build(hist.Commits[0]); err != nil {
		t.Fatal(err)
	}
	var link, appends []obs.Span
	for _, s := range tr.Spans()[n:] {
		switch s.Name {
		case "link":
			link = append(link, s)
		case "history.append":
			appends = append(appends, s)
		}
	}
	if len(link) != 1 || len(appends) != 1 {
		t.Fatalf("the rebuild emitted %d link and %d history.append spans, want one of each", len(link), len(appends))
	}
	if a := appends[0]; a.Cat != obs.CatBuild || a.Start < link[0].Start+link[0].Dur || a.Dur <= 0 {
		t.Errorf("history.append span %+v does not follow the link span %+v", a, link[0])
	}
}

// TestObsSpansAgreeWithRegistry: the per-span pass accounting must sum to
// exactly the registry totals — spans and counters are written on the same
// code path, so any divergence means an update was lost or double-counted.
func TestObsSpansAgreeWithRegistry(t *testing.T) {
	base := workload.Generate(obsProfile())
	hist := workload.GenerateHistory(base, 17, 2, workload.DefaultCommitOptions())
	metrics, spans := runHistory(t, 4, base, hist.Commits)

	var runs, skipped, replayed, dormant, hashes int64
	for _, s := range spans {
		if s.Cat != obs.CatPass {
			continue
		}
		runs += int64(s.Runs)
		skipped += int64(s.Skipped)
		replayed += int64(s.Replayed)
		dormant += int64(s.Dormant)
		hashes += int64(s.Hashes)
	}
	// pass.runs counts the sentinel's unsound audits too; spans record them
	// in Runs already, so the totals must line up exactly.
	if runs != metrics[obs.CtrPassRuns] {
		t.Errorf("span runs = %d, counter %s = %d", runs, obs.CtrPassRuns, metrics[obs.CtrPassRuns])
	}
	if skipped != metrics[obs.CtrPassSkipped] {
		t.Errorf("span skips = %d, counter %s = %d", skipped, obs.CtrPassSkipped, metrics[obs.CtrPassSkipped])
	}
	// A resident builder replays unchanged functions' segments, so the
	// stream exercises the replay attribution too.
	if replayed == 0 || replayed != metrics[obs.CtrPassReplayed] {
		t.Errorf("span replays = %d, counter %s = %d (want equal and > 0)", replayed, obs.CtrPassReplayed, metrics[obs.CtrPassReplayed])
	}
	if dormant != metrics[obs.CtrPassDormant] {
		t.Errorf("span dormant = %d, counter %s = %d", dormant, obs.CtrPassDormant, metrics[obs.CtrPassDormant])
	}
	if hashes != metrics[obs.CtrHashes] {
		t.Errorf("span hashes = %d, counter %s = %d", hashes, obs.CtrHashes, metrics[obs.CtrHashes])
	}
}

// TestObsSpanCoverage: structural trace invariants plus the acceptance
// criterion that per-pass spans account for the bulk of the passes stage.
func TestObsSpanCoverage(t *testing.T) {
	base := workload.Generate(obsProfile())
	tr := obs.NewTracer()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(base)
	if err != nil {
		t.Fatal(err)
	}

	var buildSpan *obs.Span
	var passSum, stageSum int64
	unitSpans, stageSpans := 0, map[string]int{}
	spans := tr.Spans()
	for i := range spans {
		s := &spans[i]
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration %d", s.Name, s.Dur)
		}
		switch s.Cat {
		case obs.CatBuild:
			buildSpan = s
		case obs.CatUnit:
			unitSpans++
		case obs.CatStage:
			stageSpans[s.Name]++
			if s.Name == compiler.StagePasses {
				stageSum += s.Dur
			}
		case obs.CatPass:
			passSum += s.Dur
			if s.TID < 1 || s.TID > b.Workers() {
				t.Errorf("pass span %s on thread %d, want 1..%d", s.Name, s.TID, b.Workers())
			}
		}
	}
	if buildSpan == nil {
		t.Fatal("no build span emitted")
	}
	if unitSpans != rep.UnitsCompiled {
		t.Errorf("unit spans = %d, want %d", unitSpans, rep.UnitsCompiled)
	}
	for _, stage := range []string{compiler.StageFrontend, compiler.StagePasses, compiler.StageCodegen} {
		if stageSpans[stage] != rep.UnitsCompiled {
			t.Errorf("stage %s spans = %d, want %d", stage, stageSpans[stage], rep.UnitsCompiled)
		}
	}
	// Pass spans nest inside the passes stage, so their sum can never
	// exceed it; and per-slot bookkeeping overhead is small, so they must
	// account for at least half of it (in practice >90%).
	if passSum > stageSum {
		t.Errorf("pass spans (%d ns) exceed passes stage (%d ns)", passSum, stageSum)
	}
	if passSum*2 < stageSum {
		t.Errorf("pass spans (%d ns) cover under half the passes stage (%d ns)", passSum, stageSum)
	}
}

// TestObsSkipRatePersistedState: a fresh traced builder on a warmed
// StateDir must report a positive skip rate through the metrics snapshot —
// the CLI's "second build" acceptance criterion at the library level.
func TestObsSkipRatePersistedState(t *testing.T) {
	dir := t.TempDir()
	base := workload.Generate(obsProfile())
	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Build(base); err != nil {
		t.Fatal(err)
	}
	if obs.SkipRate(b1.Metrics()) != 0 {
		t.Error("cold build reported a nonzero skip rate")
	}

	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b2.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	m := b2.Metrics()
	if m[obs.CtrPassSkipped] == 0 || obs.SkipRate(m) <= 0 {
		t.Errorf("warm rebuild skipped nothing: %s=%d", obs.CtrPassSkipped, m[obs.CtrPassSkipped])
	}
	if m[obs.CtrStateLoads] != int64(rep.UnitsCompiled) {
		t.Errorf("%s = %d, want %d", obs.CtrStateLoads, m[obs.CtrStateLoads], rep.UnitsCompiled)
	}
	if rep.Metrics[obs.CtrPassSkipped] != m[obs.CtrPassSkipped] {
		t.Error("report metrics snapshot disagrees with builder registry")
	}
	// A worker's busy time is the sum of its events: the counter and the
	// utilization are read off the timeline.
	busy := rep.Timeline.BusyNS()
	if busy <= 0 || m[obs.CtrWorkerBusyNS] != busy {
		t.Errorf("%s = %d, the timeline's events %dns", obs.CtrWorkerBusyNS, m[obs.CtrWorkerBusyNS], busy)
	}
	if u, want := rep.Utilization(), float64(busy)/float64(2*rep.CompileNS); u != want || u <= 0 || u > 1 {
		t.Errorf("utilization %v, want %v in (0,1]", u, want)
	}
}

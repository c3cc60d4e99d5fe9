package buildsys_test

import (
	"bytes"
	"maps"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// oneUnitEdits builds base, then each unit once more after a comment-only
// edit of it alone, and returns the executions those builds replayed.
func oneUnitEdits(t *testing.T, b *buildsys.Builder, base project.Snapshot) int64 {
	t.Helper()
	mustBuild(t, b, base)
	before := b.Metrics()[obs.CtrPassReplayed]
	snap := base.Clone()
	for _, unit := range base.Units() {
		snap[unit] = append(append([]byte(nil), base[unit]...), "\n// edited\n"...)
		mustBuild(t, b, snap)
	}
	return b.Metrics()[obs.CtrPassReplayed] - before
}

// TestFullCacheHitsIndependentOfWorkers: a unit's segment outputs travel
// with its job, so after a full replay build a one-unit edit replays as
// many executions on four workers as on one, whichever worker compiled the
// unit before.
func TestFullCacheHitsIndependentOfWorkers(t *testing.T) {
	base := workload.Generate(testProfile(47))
	hits := map[int]int64{}
	for _, workers := range []int{1, 4} {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: core.Replay, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		hits[workers] = oneUnitEdits(t, b, base)
	}
	if hits[1] == 0 {
		t.Fatal("comment-only edits replayed nothing on one worker")
	}
	if hits[4] != hits[1] {
		t.Errorf("one-unit edits replayed %d executions on 4 workers, %d on 1", hits[4], hits[1])
	}
}

// TestFullCacheWritesNoState: the segment memo lives in memory with each
// unit, so a builder on Replay alone with a state directory neither reads the
// state files a stateful builder left there nor writes any, while its
// report counts the segment outputs' bytes and its record rows the
// replayed executions (explain's rply column).
func TestFullCacheWritesNoState(t *testing.T) {
	dir := t.TempDir()
	base := workload.Generate(testProfile(48))
	sf, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, sf, base)
	_, written := stateFiles(t, dir)
	if len(written) == 0 {
		t.Fatal("the stateful builder wrote no state file")
	}
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: core.Replay, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	oneUnitEdits(t, b, base)
	m := b.Metrics()
	if m[obs.CtrStateLoads] != 0 || m[obs.CtrStateSaves] != 0 || m[obs.CtrStateSaveUnchanged] != 0 {
		t.Errorf("replay loaded %d state files and saved %d (%d unchanged)",
			m[obs.CtrStateLoads], m[obs.CtrStateSaves], m[obs.CtrStateSaveUnchanged])
	}
	if _, files := stateFiles(t, dir); !maps.EqualFunc(files, written, bytes.Equal) {
		t.Errorf("replay changed the state files: %d after, %d before", len(files), len(written))
	}
	rep := mustBuild(t, b, base)
	if rep.StateBytes == 0 {
		t.Error("the report counts no segment outputs")
	}
	last := base.Units()[len(base)-1]
	replayed := 0
	for _, row := range rep.Units[last].Passes {
		replayed += row.Replayed
	}
	if replayed == 0 {
		t.Errorf("%s's record rows show no replayed execution: %+v", last, rep.Units[last])
	}
}

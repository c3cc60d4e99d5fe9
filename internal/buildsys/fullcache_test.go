package buildsys_test

import (
	"path/filepath"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// oneUnitEdits builds base, then each unit once more after a comment-only
// edit of it alone, and returns the full-cache hits of those builds.
func oneUnitEdits(t *testing.T, b *buildsys.Builder, base project.Snapshot) int64 {
	t.Helper()
	mustBuild(t, b, base)
	before := b.Metrics()[obs.CtrCacheHits]
	snap := base.Clone()
	for _, unit := range base.Units() {
		snap[unit] = append(append([]byte(nil), base[unit]...), "\n// edited\n"...)
		mustBuild(t, b, snap)
	}
	return b.Metrics()[obs.CtrCacheHits] - before
}

// TestFullCacheHitsIndependentOfWorkers: a unit's cached bodies travel with
// its job, so after a full fullcache build a one-unit edit restores as many
// functions on four workers as on one, whichever worker compiled the unit
// before.
func TestFullCacheHitsIndependentOfWorkers(t *testing.T) {
	base := workload.Generate(testProfile(47))
	hits := map[int]int64{}
	for _, workers := range []int{1, 4} {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeFullCache, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		hits[workers] = oneUnitEdits(t, b, base)
	}
	if hits[1] == 0 {
		t.Fatal("comment-only edits restored no function on one worker")
	}
	if hits[4] != hits[1] {
		t.Errorf("one-unit edits restored %d functions on 4 workers, %d on 1", hits[4], hits[1])
	}
}

// TestFullCacheWritesNoState: the full cache lives in memory with each
// unit, so a fullcache builder with a state directory writes no state file,
// while its report counts the cached bodies' bytes and its record rows the
// restored functions (explain's rply column).
func TestFullCacheWritesNoState(t *testing.T) {
	dir := t.TempDir()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeFullCache, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	base := workload.Generate(testProfile(48))
	oneUnitEdits(t, b, base)
	files, err := filepath.Glob(filepath.Join(dir, "*.state"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("fullcache wrote state files: %v", files)
	}
	rep := mustBuild(t, b, base)
	if rep.StateBytes == 0 {
		t.Error("the report counts no cached bodies")
	}
	last := base.Units()[len(base)-1]
	replayed := 0
	for _, row := range rep.Units[last].Passes {
		replayed += row.Replayed
	}
	if replayed == 0 {
		t.Errorf("%s's record rows show no restored function: %+v", last, rep.Units[last])
	}
}

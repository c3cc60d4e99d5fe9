package buildsys_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/workload"
)

// TestResidentStateFilesMatchFreshBuilders: segment replay is in memory
// only and a replayed slot keeps its dormancy records, so a resident
// stateful builder — which replays — leaves the same state files as a new
// builder per commit on Records alone — what a one-shot minibuild runs —
// over a megarepo stream of 32-unit commits, and both link the stateless
// reference's program at every commit.
func TestResidentStateFilesMatchFreshBuilders(t *testing.T) {
	base := workload.Generate(workload.MegaProfile())
	hist := workload.GenerateHistory(base, 32, 4, workload.CommitOptions{Units: 32, EditsPerUnit: 2})
	ref := oracletest.Reference(t, nil, hist.Commits...)
	residentDir, freshDir := t.TempDir(), t.TempDir()
	resident, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: residentDir})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *buildsys.Builder {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: core.Records, StateDir: freshDir})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := resident.Build(base); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh().Build(base); err != nil {
		t.Fatal(err)
	}
	replayed := int64(0)
	for i, snap := range hist.Commits {
		rep, err := resident.Build(snap)
		if err != nil {
			t.Fatal(err)
		}
		replayed += rep.Metrics[obs.CtrPassReplayed]
		if d := ref[i].Diff(rep.Program); d != "" {
			t.Fatalf("commit %d: resident program differs from the stateless reference: %s", i, d)
		}
		frep, err := fresh().Build(snap)
		if err != nil {
			t.Fatal(err)
		}
		if d := ref[i].Diff(frep.Program); d != "" {
			t.Fatalf("commit %d: fresh program differs from the stateless reference: %s", i, d)
		}
		if n := frep.Metrics[obs.CtrPassReplayed]; n != 0 {
			t.Fatalf("commit %d: a fresh Records builder replayed %d executions", i, n)
		}
		files, err := filepath.Glob(filepath.Join(residentDir, "*.state"))
		if err != nil || len(files) != len(snap) {
			t.Fatalf("commit %d: %d state files (%v), want %d", i, len(files), err, len(snap))
		}
		for _, path := range files {
			got, err1 := os.ReadFile(path)
			want, err2 := os.ReadFile(filepath.Join(freshDir, filepath.Base(path)))
			if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
				t.Fatalf("commit %d: %s differs from the fresh builder's (%v, %v)", i, filepath.Base(path), err1, err2)
			}
		}
	}
	if replayed == 0 {
		t.Error("the resident builder replayed nothing: the comparison was of dormancy alone")
	}
}

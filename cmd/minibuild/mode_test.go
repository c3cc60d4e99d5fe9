package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

// TestOneShotBuildsRunRecords: a one-shot build compiles each unit once,
// so -mode stateful runs the dormancy records alone. Its flight-recorder
// records say "records" and count no replay, and the warm build still
// skips. The resident daemon keeps the memo: its records say "stateful",
// and an edited rebuild replays.
func TestOneShotBuildsRunRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.mc"), []byte(serveProg), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if out := stdoutOf(t, run, "-dir", dir, "-mode", "stateful"); !strings.HasSuffix(out, "[err: <nil>]") {
			t.Fatalf("build %d: %s", i+1, out)
		}
	}
	recs, err := history.Load(history.Path(filepath.Join(dir, ".minibuild")))
	if err != nil || len(recs) != 2 {
		t.Fatalf("%d records (%v), want 2", len(recs), err)
	}
	for i, rec := range recs {
		if rec.Mode != "records" || rec.Metrics[obs.CtrPassReplayed] != 0 {
			t.Errorf("build %d: mode %q, %d replayed; want records, 0", i+1, rec.Mode, rec.Metrics[obs.CtrPassReplayed])
		}
	}
	if recs[1].Metrics[obs.CtrPassSkipped] == 0 {
		t.Error("the warm one-shot build skipped nothing")
	}

	srv := newTestServer(t)
	path := filepath.Join(srv.dir, "main.mc")
	if err := os.WriteFile(path, []byte(serveProg+"\n// edit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if built, err := srv.pollOnce(context.Background()); err != nil || !built {
		t.Fatalf("edited poll did not rebuild: built=%v err=%v", built, err)
	}
	recs, err = history.Load(srv.histPath)
	if err != nil || len(recs) != 2 {
		t.Fatalf("serve: %d records (%v), want 2", len(recs), err)
	}
	if recs[1].Mode != "stateful" || recs[1].Metrics[obs.CtrPassReplayed] == 0 {
		t.Errorf("serve: mode %q, %d replayed; want stateful, > 0", recs[1].Mode, recs[1].Metrics[obs.CtrPassReplayed])
	}
}

// TestRetiredModesRejected: -mode takes the two product modes only, so the
// retired comparator and the single-bit arms are unknown to a build and to
// the daemon alike.
func TestRetiredModesRejected(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []string{"fullcache", "records", "replay"} {
		for _, args := range [][]string{{"-dir", dir, "-mode", mode}, {"serve", "-dir", dir, "-mode", mode}} {
			if err := run(args); err == nil || !strings.Contains(err.Error(), `unknown mode "`+mode+`"`) {
				t.Errorf("minibuild %v: %v, want unknown mode", args, err)
			}
		}
	}
}

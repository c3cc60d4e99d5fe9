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

// TestOneShotBuildsRunRecords: a one-shot build persists each unit's memo
// beside its state, so the second of two -mode stateful invocations over one
// state directory replays from disk: both flight-recorder records say
// "stateful", the second counts replays and dormancy skips, and its program
// is the stateless one's. The resident daemon replays from memory.
func TestOneShotBuildsRunRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.mc"), []byte(serveProg), 0o644); err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i := range outs {
		outs[i] = stdoutOf(t, run, "-dir", dir, "-mode", "stateful", "-run")
		if !strings.HasSuffix(outs[i], "[err: <nil>]") {
			t.Fatalf("build %d: %s", i+1, outs[i])
		}
	}
	stateless := stdoutOf(t, run, "-dir", dir, "-mode", "stateless", "-run", "-state", t.TempDir())
	if tail(outs[1]) != tail(stateless) {
		t.Errorf("the replaying one-shot build's program output differs from stateless:\n%s\nvs\n%s", tail(outs[1]), tail(stateless))
	}
	recs, err := history.Load(history.Path(filepath.Join(dir, ".minibuild")))
	if err != nil || len(recs) != 2 {
		t.Fatalf("%d records (%v), want 2", len(recs), err)
	}
	for i, rec := range recs {
		if rec.Mode != "stateful" {
			t.Errorf("build %d: mode %q, want stateful", i+1, rec.Mode)
		}
	}
	if recs[1].Metrics[obs.CtrPassReplayed] == 0 || recs[1].Metrics[obs.CtrStateMemoLoads] == 0 {
		t.Errorf("the second one-shot build replayed %d executions from %d memos; want both > 0",
			recs[1].Metrics[obs.CtrPassReplayed], recs[1].Metrics[obs.CtrStateMemoLoads])
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

// tail is the program's part of a -run output: its lines but the build's
// statistics, which hold timings.
func tail(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "built ") && !strings.HasPrefix(line, "dormancy: ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/state"
)

const testSrc = `
var _mode int = 1;

func _twist(x int) int {
    if _mode > 0 { return x * 3 + 1; }
    return x / 2;
}

func churn(n int) int {
    var acc int = 0;
    for var i int = 1; i <= n; i++ { acc += _twist(i); }
    return acc;
}

func main() int {
    print("churn", churn(10));
    return churn(3) % 7;
}
`

// minicc runs the command in dir and returns its stdout and error.
func minicc(t *testing.T, dir string, args ...string) (string, error) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	err = run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestVerifyStateMatchesStateless: a stateful compile run twice over one
// state directory with -verify-state — the second compile skips, and every
// skip is audited — exits 0, and its IR is the stateless compile's. Each
// file compiles once in a process, so minicc runs the dormancy records
// alone: nothing replays.
func TestVerifyStateMatchesStateless(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "u.mc"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := minicc(t, dir, "-emit-ir", "u.mc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := minicc(t, dir, "-mode", "stateful", "-state-dir", "st", "-verify-state", "-emit-ir", "-metrics", "u.mc")
		if err != nil {
			t.Fatalf("compile %d: %v", i+1, err)
		}
		ir, _, ok := strings.Cut(got, obs.MetricsHeader)
		if !ok {
			t.Fatalf("compile %d printed no metrics block:\n%s", i+1, got)
		}
		if ir != want {
			t.Errorf("compile %d: -verify-state IR differs from stateless:\n%s\n---\n%s", i+1, ir, want)
		}
		ctr := obs.ParseMetrics(got)
		if i == 1 && ctr[obs.CtrAuditSampled] == 0 {
			t.Errorf("the warm compile audited no skip: %v", ctr)
		}
		if ctr[obs.CtrAuditUnsound] != 0 || ctr[obs.CtrPassReplayed] != 0 {
			t.Errorf("compile %d: %d unsound skips, %d replayed", i+1, ctr[obs.CtrAuditUnsound], ctr[obs.CtrPassReplayed])
		}
	}
}

// TestVerifyStateExitsOnUnsoundSkip: a state file that says a pass which
// changes its function was dormant on the very IR it sees makes the next
// compile skip it; -verify-state runs it anyway, catches the change, and
// exits non-zero — with the stateless IR on stdout all the same.
func TestVerifyStateExitsOnUnsoundSkip(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "u.mc"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := minicc(t, dir, "-emit-ir", "u.mc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := minicc(t, dir, "-mode", "stateful", "-state-dir", "st", "u.mc"); err != nil {
		t.Fatal(err)
	}
	// A dormant slot's input is the next slot's input too, so a changed
	// record after a dormant one becomes a lie by taking its hash.
	path := buildsys.StatePath(filepath.Join(dir, "st"), "u.mc")
	st, err := state.Load(path)
	if err != nil || st == nil {
		t.Fatalf("state: %v, %v", st, err)
	}
	lied := false
	for _, fs := range st.Funcs {
		for i := 1; i < len(fs.Slots) && !lied; i++ {
			prev, rec := fs.Slots[i-1], &fs.Slots[i]
			if fs.Seen[i-1] && !prev.Changed && fs.Seen[i] && rec.Changed {
				*rec = core.Record{InputHash: prev.InputHash}
				lied = true
			}
		}
	}
	if !lied {
		t.Fatal("no changed record follows a dormant one; the test source is too simple")
	}
	if err := state.Save(path, st); err != nil {
		t.Fatal(err)
	}

	got, err := minicc(t, dir, "-mode", "stateful", "-state-dir", "st", "-verify-state", "-emit-ir", "u.mc")
	if err == nil || !strings.Contains(err.Error(), "unsound") {
		t.Errorf("err = %v, want the unsound skip reported", err)
	}
	if got != want {
		t.Errorf("IR after the caught skip differs from stateless:\n%s\n---\n%s", got, want)
	}
}

// TestRetiredModeRejected: -mode takes the two product modes only. The
// policy that skipped without the fingerprint guard is gone, the full-IR
// cache left with the comparator's name, and the single-bit arms are no
// product mode: asking for any is an error, not a silent fallback.
func TestRetiredModeRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "u.mc"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"predictive", "fullcache", "records", "replay"} {
		if _, err := minicc(t, dir, "-mode", mode, "u.mc"); err == nil || !strings.Contains(err.Error(), `unknown mode "`+mode+`"`) {
			t.Errorf("-mode %s: err = %v, want unknown mode", mode, err)
		}
	}
}

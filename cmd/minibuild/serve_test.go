package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
)

const serveProg = `
func main() int {
    var x int = 40;
    return x + 2;
}
`

func newTestServer(t *testing.T) *buildServer {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.mc"), []byte(serveProg), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := newBuildServerCfg(serveConfig{dir: dir, cache: filepath.Join(dir, ".minibuild"), mode: "stateful", jobs: 1, histLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	if built, err := srv.pollOnce(context.Background()); err != nil || !built {
		t.Fatalf("initial build: built=%v err=%v", built, err)
	}
	return srv
}

// TestServeMetricsReconcile is the acceptance check: /metrics must be valid
// Prometheus text whose counter values reconcile exactly with the obs
// registry snapshot for the same build.
func TestServeMetricsReconcile(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	parsed := obs.ParseProm(string(body))

	// The exposition now carries counters plus histogram samples; every
	// parsed line must be one or the other — no unexplained families.
	snap := srv.builder.Metrics()
	known := make(map[string]bool, len(snap))
	for name := range snap {
		known[obs.PromName(name)] = true
	}
	for name := range srv.builder.Histograms() {
		pn := obs.PromName(name)
		known[pn+"_sum"] = true
		known[pn+"_count"] = true
	}
	counters := 0
	for name := range parsed {
		switch {
		case known[name]:
			counters++
		case strings.Contains(name, "_bucket{le="):
		default:
			t.Errorf("/metrics exposes unexplained sample %q", name)
		}
	}
	if want := len(snap) + 2*len(srv.builder.Histograms()); counters != want {
		t.Fatalf("/metrics exposes %d known samples, want %d", counters, want)
	}
	for name, v := range snap {
		if got := parsed[obs.PromName(name)]; got != v {
			t.Errorf("counter %s: /metrics=%d registry=%d", name, got, v)
		}
	}
	if parsed[obs.PromName(obs.CtrBuilds)] != 1 {
		t.Errorf("build count %d after one build", parsed[obs.PromName(obs.CtrBuilds)])
	}
	if parsed[obs.PromName(obs.CtrDecCold)] == 0 {
		t.Error("decision.cold_state absent from /metrics after a cold build")
	}
}

func TestServeHealthzAndBuilds(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
		Builds int    `json:"builds"`
	}
	if err := json.NewDecoder(res.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if hz.Status != "ok" || hz.Builds != 1 {
		t.Errorf("healthz = %+v, want status ok with 1 build", hz)
	}

	res, err = ts.Client().Get(ts.URL + "/builds?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var recs []history.Record
	if err := json.NewDecoder(res.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("/builds returned %+v, want one record with seq 1", recs)
	}
	if recs[0].Units["main.mc"].Passes == nil {
		t.Error("/builds record missing pass decisions")
	}
}

// TestServePollRebuilds: an on-disk edit triggers exactly one incremental
// rebuild; an unchanged poll is a no-op.
func TestServePollRebuilds(t *testing.T) {
	srv := newTestServer(t)

	if built, err := srv.pollOnce(context.Background()); err != nil || built {
		t.Fatalf("unchanged poll rebuilt: built=%v err=%v", built, err)
	}

	path := filepath.Join(srv.dir, "main.mc")
	if err := os.WriteFile(path, []byte(serveProg+"\n// edit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if built, err := srv.pollOnce(context.Background()); err != nil || !built {
		t.Fatalf("edited poll did not rebuild: built=%v err=%v", built, err)
	}

	recs, err := history.Load(srv.histPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d history records after two builds, want 2", len(recs))
	}
	if recs[1].SkipRatePct <= 0 {
		t.Errorf("incremental rebuild skip rate %.1f%%, want > 0", recs[1].SkipRatePct)
	}
}

// TestServeHTTPServerHardened: the daemon's http.Server must carry the
// slowloris-proofing timeouts (a half-sent request header or an idle
// keep-alive connection must not be held forever).
func TestServeHTTPServerHardened(t *testing.T) {
	hs := newHTTPServer(http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slowloris can pin a connection")
	}
	if hs.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset")
	}
}

// TestServePollSkipsOverlap: a poll that cannot start (another build in
// flight) is skipped — counted, not queued — and a draining server builds
// nothing.
func TestServePollSkipsOverlap(t *testing.T) {
	srv := newTestServer(t)

	srv.buildMu.Lock()
	built, err := srv.pollOnce(context.Background())
	srv.buildMu.Unlock()
	if built || err != nil {
		t.Fatalf("overlapping poll: built=%v err=%v, want skip", built, err)
	}
	srv.mu.Lock()
	skipped := srv.pollsSkipped
	srv.mu.Unlock()
	if skipped != 1 {
		t.Errorf("pollsSkipped = %d, want 1", skipped)
	}

	// Draining: even with the build lock free and the project edited, no
	// build runs.
	if err := os.WriteFile(filepath.Join(srv.dir, "main.mc"), []byte(serveProg+"\n// edit\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv.setDraining()
	if built, err := srv.pollOnce(context.Background()); built || err != nil {
		t.Fatalf("draining poll: built=%v err=%v, want no-op", built, err)
	}
}

// TestServeSIGTERMDrain is the end-to-end drain test: a real SIGTERM lands
// while a build is in flight (held open by the faulthook pass in block
// mode). /healthz must flip to "draining", the in-flight build must be
// allowed to finish cleanly, serveLoop must return nil, and a cold start
// on the same state directory must find consistent, loadable state.
func TestServeSIGTERMDrain(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, ".minibuild")
	if err := os.WriteFile(filepath.Join(dir, "main.mc"), []byte(serveProg), 0o644); err != nil {
		t.Fatal(err)
	}
	// faulthook rides at the end of the quick pipeline so an armed block
	// can hold a compile in flight; disarmed it is a dormant no-op.
	pipeline := append(append([]string(nil), passes.QuickPipeline...), "faulthook")
	cfg := serveConfig{
		dir: dir, cache: cache, mode: "stateful", jobs: 1, histLimit: 20,
		pipeline: pipeline, drainGrace: 20 * time.Second,
	}
	srv, err := newBuildServerCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- serveLoop(ctx, srv, ln, 20*time.Millisecond, io.Discard) }()

	waitFor(t, "initial build", func() bool { return healthz(t, base).Builds >= 1 })

	// Arm the block, edit the function body (the IR must change so the
	// faulthook slot reruns instead of being skipped as dormant), and wait
	// for the in-flight build to reach the blocked pass.
	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultBlock, Times: 1})
	defer passes.DisarmFaultHook()
	edited := "\nfunc main() int {\n    var x int = 40;\n    return x + 3;\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "main.mc"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocked build in flight", func() bool { return passes.FaultHookFired() >= 1 })

	// A real SIGTERM: the daemon must flip to draining while the build is
	// still held open.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "healthz draining", func() bool { return healthz(t, base).Status == "draining" })

	// Release the build; the drain lets it finish and shuts down cleanly.
	passes.ReleaseFaultHook()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveLoop returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveLoop did not return after drain")
	}

	// Cold start on the same directories: the state the drained daemon left
	// behind must load cleanly (no I/O errors, warm state records found).
	srv2, err := newBuildServerCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if built, err := srv2.pollOnce(context.Background()); err != nil || !built {
		t.Fatalf("cold start after drain: built=%v err=%v", built, err)
	}
	m := srv2.builder.Metrics()
	if m[obs.CtrStateIOErrors] != 0 {
		t.Errorf("cold start hit %d state I/O errors; state dir inconsistent after drain", m[obs.CtrStateIOErrors])
	}
	if m[obs.CtrStateLoads] == 0 {
		t.Error("cold start loaded no persisted state; drained build did not persist")
	}
}

// healthz fetches and decodes /healthz.
func healthz(t *testing.T, base string) (hz struct {
	Status string `json:"status"`
	Builds int    `json:"builds"`
}) {
	t.Helper()
	res, err := http.Get(base + "/healthz")
	if err != nil {
		return hz // server may not be accepting yet; caller polls
	}
	defer res.Body.Close()
	_ = json.NewDecoder(res.Body).Decode(&hz)
	return hz
}

// waitFor polls cond until it holds or a deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

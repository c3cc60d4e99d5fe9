package main

// Daemon-level network adversity: the production http.Server config must
// bound a slow-loris client without disturbing healthy /cas/ traffic, the
// per-request body limit must refuse oversized uploads with 413 (counted
// as cas.body_rejected).

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/obs"
)

// newCASServeServer builds a buildServer hosting /cas/ with the given
// tuning and runs its initial build.
func newCASServeServer(t *testing.T, cfg serveConfig) *buildServer {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.mc"), []byte(serveProg), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.dir = dir
	cfg.cache = filepath.Join(dir, ".minibuild")
	if cfg.mode == "" {
		cfg.mode = "stateful"
	}
	if cfg.jobs == 0 {
		cfg.jobs = 1
	}
	if cfg.histLimit == 0 {
		cfg.histLimit = 50
	}
	cfg.casServe = true
	srv, err := newBuildServerCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if built, err := srv.pollOnce(context.Background()); err != nil || !built {
		t.Fatalf("initial build: built=%v err=%v", built, err)
	}
	return srv
}

// TestServeSlowLorisBounded: a client that sends half a request header
// and then goes silent is disconnected by ReadHeaderTimeout, and a
// healthy /cas/ request served concurrently is unaffected — the stalled
// reader cannot pin the daemon.
func TestServeSlowLorisBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-loris bound waits out the 5s ReadHeaderTimeout")
	}
	srv := newCASServeServer(t, serveConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(srv.handler())
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// The loris: half a request line, then silence.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HT"); err != nil {
		t.Fatal(err)
	}

	// Healthy traffic flows while the loris dangles: a miss probe answers
	// 404 promptly.
	req, _ := http.NewRequest(http.MethodGet, base+"/cas/blob/"+cas.Sum([]byte("absent")).String(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("healthy request failed while the loris dangled: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("healthy miss probe: status %d, want 404", resp.StatusCode)
	}

	// The server must hang up on the loris within ReadHeaderTimeout plus
	// slack — our own 9s read deadline must never be what ends the wait.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(9 * time.Second))
	buf := make([]byte, 64)
	for {
		_, rerr := conn.Read(buf)
		if rerr != nil {
			if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
				t.Fatal("server never disconnected the slow-loris client")
			}
			break // server closed the connection
		}
	}
	if elapsed := time.Since(start); elapsed >= 8*time.Second {
		t.Fatalf("loris held the connection %v, want under ReadHeaderTimeout+slack", elapsed)
	}
}

// TestServeCASBodyLimit: an upload past -cas-max-body is refused with 413
// and counted, without disturbing in-limit uploads.
func TestServeCASBodyLimit(t *testing.T) {
	srv := newCASServeServer(t, serveConfig{casMaxBody: 1024})
	hs := newHTTPServer(srv.handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	put := func(data []byte) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut,
			base+"/cas/blob/"+cas.Sum(data).String(), bytes.NewReader(data))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("PUT: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := put([]byte("comfortably small")); code != http.StatusNoContent {
		t.Fatalf("in-limit PUT: status %d, want 204", code)
	}
	if code := put(bytes.Repeat([]byte("x"), 4096)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit PUT: status %d, want 413", code)
	}
	if got := srv.casSrv.Metrics().Snapshot()[obs.CtrCASBodyRejected]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrCASBodyRejected, got)
	}
	// The rejection also surfaces on /metrics for alerting.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "cas_body_rejected") {
		t.Fatal("/metrics does not export the body-rejection counter")
	}
}

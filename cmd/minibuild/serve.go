package main

// minibuild serve — the long-lived daemon mode: the builder stays resident
// (retaining its object cache, dormancy state, and counters registry),
// polls the project directory for source changes, rebuilds incrementally,
// and exposes live observability over HTTP:
//
//	/metrics      counters + latency histograms in Prometheus text format
//	/healthz      liveness + last-build status (JSON)
//	/builds       recent flight-recorder records (JSON, ?n= to bound)
//	/dash         live HTML dashboard (waterfall, sparklines; dash.go)
//	/debug/pprof  net/http/pprof profiles of the daemon itself
//
// Polling (os.Stat-free, whole-directory reload + content diff) keeps the
// daemon dependency-free; MiniC projects are small enough that a re-read
// per interval is negligible next to a build.
//
// Shutdown is a drain, not a kill: SIGINT/SIGTERM flips /healthz to
// "draining", refuses new builds, gives the in-flight build a grace window
// to finish (its state commits normally), and only then cancels it
// cooperatively — either way the state directory stays loadable by the
// next cold start. See docs/ROBUSTNESS.md.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
)

// Drain/shutdown tuning.
const (
	// defaultDrainGrace is how long a drain waits for the in-flight build
	// before cancelling it.
	defaultDrainGrace = 5 * time.Second
	// httpShutdownGrace bounds http.Server.Shutdown once builds are settled.
	httpShutdownGrace = 3 * time.Second
)

func runServe(args []string) error {
	fs := flag.NewFlagSet("minibuild serve", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	mode := fs.String("mode", "stateful", "compiler policy: stateless|stateful")
	jobs := fs.Int("j", 0, "parallel compile workers (default GOMAXPROCS)")
	addr := fs.String("addr", "127.0.0.1:8377", "HTTP listen address")
	interval := fs.Duration("interval", 500*time.Millisecond, "project poll interval")
	limit := fs.Int("history-limit", history.DefaultLimit, "flight-recorder records per segment file (the newest that many are kept at least)")
	audit := fs.Float64("audit", 0, "soundness-sentinel audit rate in [0,1]: probability a would-be-skipped pass executes anyway for verification")
	casServe := fs.Bool("cas-serve", false, "host the shared content-addressed cache under /cas/ (on-disk under the cache directory; see docs/ARCHITECTURE.md)")
	casQuota := fs.Int64("cas-quota", 256<<20, "shared-cache byte bound over all stored blobs (LRU eviction past it; 0 = unbounded)")
	casMaxBody := fs.Int64("cas-max-body", 64<<20, "per-request /cas/ upload body limit in bytes (over-limit uploads get 413 and count cas.body_rejected)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *audit < 0 || *audit > 1 {
		return fmt.Errorf("minibuild serve: -audit %v out of range [0,1]", *audit)
	}

	srv, err := newBuildServerCfg(serveConfig{
		dir: *dir, cache: *cache, mode: *mode,
		jobs: *jobs, histLimit: *limit, auditRate: *audit,
		casServe: *casServe, casQuota: *casQuota, casMaxBody: *casMaxBody,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveLoop(ctx, srv, ln, *interval, os.Stdout)
}

// newHTTPServer wraps the daemon mux in an http.Server with read, write,
// and idle timeouts: even a local daemon must not let a stuck or
// malicious client pin a connection (or a half-sent request header or
// body — slowloris) forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// serveLoop runs the daemon: initial build, poll ticker, HTTP server, and
// the graceful drain on ctx cancellation (SIGINT/SIGTERM in runServe). It
// is split from runServe so tests can drive the drain end-to-end with a
// real signal against a real listener.
func serveLoop(ctx context.Context, srv *buildServer, ln net.Listener, interval time.Duration, out io.Writer) error {
	// Builds run under their own context: a drain first *waits* for the
	// in-flight build (drainGrace), and only a build that overstays is
	// cancelled. Cancelling ctx directly would abort work that was about to
	// finish cleanly.
	buildCtx, buildCancel := context.WithCancel(context.Background())
	defer buildCancel()

	hs := newHTTPServer(srv.handler())

	// Initial build before announcing readiness; failures are recorded in
	// /healthz and retried by the poll loop rather than killing the daemon.
	if built, err := srv.pollOnce(buildCtx); err != nil {
		fmt.Fprintf(os.Stderr, "minibuild serve: initial build: %v\n", err)
	} else if built {
		fmt.Fprintf(out, "serving %s on http://%s (mode %s, poll %s) — /metrics /healthz /builds /debug/pprof\n",
			srv.dir, ln.Addr(), srv.mode, interval)
	}

	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if _, err := srv.pollOnce(buildCtx); err != nil {
					fmt.Fprintf(os.Stderr, "minibuild serve: %v\n", err)
				}
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Drain: refuse new builds, wait out the in-flight one, cancel it if
		// it overstays the grace window (a cancelled build leaves every state
		// file either untouched or fully written — loadable either way), and
		// only then tear down HTTP so /healthz reports "draining" throughout.
		srv.setDraining()
		idle := make(chan struct{})
		go func() {
			srv.buildMu.Lock() // blocks until the in-flight build releases it
			srv.buildMu.Unlock()
			close(idle)
		}()
		select {
		case <-idle:
		case <-time.After(srv.drainGrace):
			buildCancel()
			<-idle
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), httpShutdownGrace)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
		fmt.Fprintln(out, "minibuild serve: drained, shut down")
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// buildServer owns the resident builder and the daemon's HTTP state.
type buildServer struct {
	dir        string
	histPath   string
	mode       string
	drainGrace time.Duration

	// buildMu is held for the duration of one build. pollOnce *skips* a
	// poll it cannot start (TryLock) rather than queueing behind the build
	// in flight — the next tick re-evaluates against fresh content — and
	// the drain path waits on it for the in-flight build to settle.
	buildMu sync.Mutex

	builder *buildsys.Builder

	// casSrv, when set, is the hosted shared cache mounted at /cas/; its
	// registry merges into /metrics alongside the builder's.
	casSrv *cas.Server

	mu           sync.Mutex // guards the status fields below
	lastSnap     project.Snapshot
	builds       int
	pollsSkipped int
	lastErr      string
	lastTime     time.Time
	draining     bool
}

// serveConfig configures a buildServer; the zero value of the optional
// fields picks the production defaults (tests override pipeline and
// drainGrace).
type serveConfig struct {
	dir, cache, mode string
	jobs, histLimit  int
	auditRate        float64
	pipeline         []string      // pass-list override (tests)
	drainGrace       time.Duration // 0 means defaultDrainGrace

	// Shared-cache hosting (-cas-serve): mount /cas/ over a DiskCAS under
	// the cache directory, held to a store-wide byte bound. The resident
	// builder publishes through the same server in-process.
	casServe   bool
	casQuota   int64
	casMaxBody int64
}

// newBuildServerCfg constructs the resident builder. Unlike one-shot
// builds, serve records flight-recorder history for every mode: the state
// directory exists even when the policy itself persists nothing.
func newBuildServerCfg(cfg serveConfig) (*buildServer, error) {
	cmode, err := compiler.ParseMode(cfg.mode)
	if err != nil {
		return nil, err
	}
	stateDir := resolveStateDir(cfg.dir, cfg.cache)
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	histPath := history.Path(stateDir)
	casDir := filepath.Join(stateDir, "cas")
	if cmode&core.Records == 0 {
		stateDir = ""
	}

	var casSrv *cas.Server
	var casStore cas.Store
	if cfg.casServe {
		// NewServer over a DiskCAS runs the startup scan here: temp sweep,
		// then the books from the blob tree (docs/ROBUSTNESS.md).
		casSrv = cas.NewServer(cas.NewDiskCAS(casDir, nil), cas.ServerOptions{
			Quota:        cfg.casQuota,
			MaxBodyBytes: cfg.casMaxBody,
			Metrics:      obs.NewRegistry(),
		})
		// The resident builder shares through the same server, in-process.
		casStore = casSrv
	}

	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode:         cmode,
		StateDir:     stateDir,
		Workers:      cfg.jobs,
		HistoryPath:  histPath,
		HistoryLimit: cfg.histLimit,
		AuditRate:    cfg.auditRate,
		Pipeline:     cfg.pipeline,
		CAS:          casStore,
	})
	if err != nil {
		return nil, err
	}
	if cfg.drainGrace <= 0 {
		cfg.drainGrace = defaultDrainGrace
	}
	return &buildServer{
		dir: cfg.dir, histPath: histPath, mode: cfg.mode,
		drainGrace: cfg.drainGrace, builder: b, casSrv: casSrv,
	}, nil
}

// pollOnce reloads the project and rebuilds when any unit's content
// changed (or on the first call). Overlap-safe: when another build is
// already in flight the poll is skipped, not queued, and a draining server
// builds nothing. Reports whether a build ran.
func (s *buildServer) pollOnce(ctx context.Context) (bool, error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return false, nil
	}
	if !s.buildMu.TryLock() {
		s.mu.Lock()
		s.pollsSkipped++
		s.mu.Unlock()
		return false, nil
	}
	defer s.buildMu.Unlock()

	snap, err := project.LoadDir(s.dir)
	if err != nil {
		s.noteErr(err)
		return false, err
	}
	s.mu.Lock()
	unchanged := s.lastSnap != nil && len(project.Diff(s.lastSnap, snap)) == 0
	s.mu.Unlock()
	if unchanged {
		return false, nil
	}
	rep, err := s.builder.BuildContext(ctx, snap)
	if rep != nil {
		// State/history I/O degradation is non-fatal for a resident daemon;
		// log it (the state.io_error / history.io_error counters on /metrics
		// carry the same signal for alerting). A cancelled build still
		// surfaces the warnings its partial report accumulated.
		for _, w := range rep.Warnings {
			fmt.Fprintln(os.Stderr, "minibuild serve: warning:", w)
		}
	}
	if err != nil {
		s.noteErr(err)
		return false, err
	}
	s.mu.Lock()
	s.lastSnap = snap
	s.builds++
	s.lastErr = ""
	s.lastTime = time.Now()
	s.mu.Unlock()
	return true, nil
}

// setDraining flips the server into drain mode: /healthz reports
// "draining" and subsequent polls build nothing.
func (s *buildServer) setDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

func (s *buildServer) noteErr(err error) {
	s.mu.Lock()
	s.lastErr = err.Error()
	s.mu.Unlock()
}

// handler assembles the daemon's HTTP mux.
func (s *buildServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/builds", s.handleBuilds)
	mux.HandleFunc("/dash", s.handleDash)
	if s.casSrv != nil {
		mux.Handle("/cas/", s.casSrv.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders the builder's counters registry as Prometheus text
// exposition format — counters first, then the latency histograms
// (unit compile, skip decision, build wall) as Prometheus histograms.
// Values reconcile exactly with Builder.Metrics() / Builder.Histograms().
// With -cas-serve on, the hosted cache's registry (server-side cas.*
// counters, cas.serve_ns latency) merges in by addition — sound because
// counters are sums and every histogram shares one bucket geometry.
func (s *buildServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	ctrs, hists := s.metricsSnapshots()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, obs.FormatProm(ctrs))
	fmt.Fprint(w, obs.FormatPromHist(hists))
}

// metricsSnapshots returns the daemon's merged counter and histogram
// snapshots (builder registry + hosted CAS registry when present).
func (s *buildServer) metricsSnapshots() (map[string]int64, map[string]obs.HistogramSnapshot) {
	ctrs, hists := s.builder.Metrics(), s.builder.Histograms()
	if s.casSrv != nil {
		if reg := s.casSrv.Metrics(); reg != nil {
			ctrs = obs.MergeCounters(ctrs, reg.Snapshot())
			hists = obs.MergeHistSnapshots(hists, reg.HistSnapshot())
		}
	}
	return ctrs, hists
}

// handleHealthz reports liveness and the last build outcome. Status is
// "ok", "degraded" (last build errored), or "draining" (shutdown in
// progress — overrides degraded).
func (s *buildServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := map[string]any{
		"status":             "ok",
		"builds":             s.builds,
		"last_build_unix_ms": s.lastTime.UnixMilli(),
	}
	if s.pollsSkipped > 0 {
		out["polls_skipped"] = s.pollsSkipped
	}
	if s.lastErr != "" {
		out["status"] = "degraded"
		out["last_error"] = s.lastErr
	}
	if s.draining {
		out["status"] = "draining"
		out["draining"] = true
	}
	s.mu.Unlock()
	if s.casSrv != nil {
		out["cas_inflight"] = s.casSrv.InFlight()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleBuilds serves recent flight-recorder records as a JSON array
// (newest last); ?n= bounds the count.
func (s *buildServer) handleBuilds(w http.ResponseWriter, r *http.Request) {
	var n int // stays 0 — every record — when ?n= is absent or not a number
	_, _ = fmt.Sscanf(r.URL.Query().Get("n"), "%d", &n)
	recs, err := history.LoadLast(s.histPath, n)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if recs == nil {
		recs = []history.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(recs)
}

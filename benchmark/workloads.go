package main

// The four workloads and the closed loop that measures them: one client,
// one build in flight, every buildsys.Options field at the product default
// except the state directory (and the shared cache, where the workload is
// about it).

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// spec is one workload.
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Commits is the number of measured builds per round; every round
	// replays the same commits.
	Commits int
	Shape   workload.CommitOptions
	// Fresh builds every commit with a new Builder over the round's state
	// directory: the CLI deployment, no in-memory object cache.
	Fresh bool
	// Remote is the CI-runner scenario: a publisher builds each commit
	// first, then a new Builder with an empty state directory and the shared
	// cache builds the same snapshot.
	Remote bool
	// engaged fails the run when the path under test was not taken.
	engaged func(units int, builds []buildStat) error
}

// buildStat is what one measured build reports about the path it took.
type buildStat struct {
	Compiled, Cached, Remote            int
	StateLoads, PassSkips, VerifyFailed int64
}

var specs = []spec{
	{
		Name:    "edit_loop",
		Why:     "resident builder, 2-unit commits: the paper's edit-compile loop; flight-recorder append dominates, compile layers are a few percent",
		Commits: 16, Shape: workload.DefaultCommitOptions(),
		engaged: func(_ int, builds []buildStat) error {
			var cached int
			var skips int64
			for _, b := range builds {
				cached += b.Cached
				skips += b.PassSkips
			}
			if cached == 0 || skips == 0 {
				return fmt.Errorf("object cache served %d units and %d passes were skipped; both must be > 0", cached, skips)
			}
			return nil
		},
	},
	{
		Name:    "fresh_process",
		Why:     "new Builder per commit over warm state files (CLI model): every unit recompiles with dormancy loaded from disk; frontend, state decode, fingerprint, codegen do the work",
		Commits: 8, Shape: workload.DefaultCommitOptions(), Fresh: true,
		engaged: func(units int, builds []buildStat) error {
			for i, b := range builds {
				if b.Compiled != units || b.StateLoads != int64(units) {
					return fmt.Errorf("build %d compiled %d units and loaded %d states; both must be %d", i, b.Compiled, b.StateLoads, units)
				}
			}
			return nil
		},
	},
	{
		Name:    "wide_pull",
		Why:     "resident builder, 32-unit commits (git pull): ~30 state saves and fingerprint mismatches per build on a parallel pool; shows a cost moved onto saves or hashing",
		Commits: 10, Shape: workload.CommitOptions{Units: 32, EditsPerUnit: 2},
		engaged: func(units int, builds []buildStat) error {
			need := min(20, units/2)
			for i, b := range builds {
				if b.Compiled < need {
					return fmt.Errorf("build %d compiled %d units; a wide commit must compile at least %d", i, b.Compiled, need)
				}
			}
			return nil
		},
	},
	{
		Name:    "fresh_runner",
		Why:     "new Builder with empty state dir against a warm shared cache over loopback HTTP: every unit is a verified fetch, nothing compiles; the only workload where cas does the work",
		Commits: 16, Shape: workload.DefaultCommitOptions(), Remote: true,
		engaged: func(units int, builds []buildStat) error {
			for i, b := range builds {
				if b.Remote != units || b.Compiled != 0 || b.VerifyFailed != 0 {
					return fmt.Errorf("build %d fetched %d units, compiled %d, rejected %d blobs; must be %d, 0, 0", i, b.Remote, b.Compiled, b.VerifyFailed, units)
				}
			}
			return nil
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// env is one process's view of a run: the fixture, the workload's commits,
// and a scratch directory for round state.
type env struct {
	spec       spec
	fixtureDir string
	work       string
	base       project.Snapshot   // the tree the fixture was built to
	commits    []project.Snapshot // measured commits, the same every round
	rounds     int                // round directories handed out so far
}

// newEnv replays the edit stream to the fixture and draws the workload's
// measured commits from the same Editor.
func newEnv(cfg config, sp spec, fixtureDir, work string) (*env, error) {
	s, err := warmed(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Commits > 0 {
		sp.Commits = cfg.Commits
	}
	e := &env{spec: sp, fixtureDir: fixtureDir, work: work, base: s.snap}
	for i := 0; i < sp.Commits; i++ {
		e.commits = append(e.commits, s.next(sp.Shape))
	}
	return e, nil
}

// variant is a deviation from the product defaults, used by the traced
// run's paired replays. The zero variant is the configuration of record.
type variant struct {
	// mutate edits the options of every Builder the round makes.
	mutate func(*buildsys.Options)
	// reference marks the traced run's reference round: every build's
	// program is hashed, not only the sampled ones (the decomposed replay is
	// held to each), and the flight recorder's file is described.
	reference bool
	// limit replays only the first limit commits (0 means all).
	limit int
}

// historyInfo describes the flight recorder's file after a round.
type historyInfo struct {
	KiB     float64
	Records int
	LoadMS  float64
	Last    *history.Record
}

// roundResult is what one round measured.
type roundResult struct {
	// RawMS and RawCPUMS are each measured build's wall time and process
	// user+sys time as the clock read them. BuildMS and CPUMS are the same at
	// the machine's nominal speed: the raw reading times Speed[i], the
	// machine's speed around build i relative to nominal (probe.go; below 1
	// when the machine was slow).
	RawMS    []float64
	RawCPUMS []float64
	BuildMS  []float64
	CPUMS    []float64
	Speed    []float64
	SetupS   float64 // copy, priming / cache seeding
	StateKiB float64
	// PeakRSSMB is the process's resident high-water mark over the round
	// (over the process's life where the mark cannot be reset).
	PeakRSSMB float64
	Builds    []buildStat
	Failures  []string

	// Digest[i] is the SHA-256 of build i's disassembled program (zero when
	// not taken); Final is the last build's program.
	Digest [][32]byte
	Final  *codegen.Program

	// Counters sums the builders' counter registries over the measured
	// builds. NS holds the counters that are durations (*_ns) at the machine's
	// nominal speed, each build's share scaled like its wall time; PassNS
	// splits pass run time by pass name the same way.
	Counters    map[string]int64
	NS          map[string]float64
	PassNS      map[string]float64
	Utilization []float64
	CASFetch    obs.HistogramSnapshot
	StateDir    string
	History     historyInfo // reference rounds only
	AllocBytes  uint64      // heap allocated by the measured builds (reference rounds only)
}

// sampled reports whether build i of n is checked against the stateless
// oracle: the first, the last and every tenth.
func sampled(i, n int) bool { return i == 0 || i == n-1 || i%10 == 0 }

func digest(p *codegen.Program) [32]byte {
	return sha256.Sum256([]byte(codegen.DisassembleProgram(p)))
}

func cpuMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// round runs one round of the workload under v: a fresh copy of the
// fixture, an untimed priming build (or cache seeding), then the measured
// commits, each timed from outside around NewBuilder (where the workload
// makes one per build) and Build.
func (e *env) round(v variant) (*roundResult, error) {
	setupStart := time.Now()
	resetPeakRSS()
	e.rounds++
	dir := filepath.Join(e.work, fmt.Sprintf("round-%03d", e.rounds))
	defer os.RemoveAll(dir)
	commits := e.commits
	if v.limit > 0 && v.limit < len(commits) {
		commits = commits[:v.limit]
	}
	res := &roundResult{
		Counters: map[string]int64{},
		NS:       map[string]float64{},
		PassNS:   map[string]float64{},
		Digest:   make([][32]byte, len(commits)),
		StateDir: filepath.Join(dir, stateDirName),
	}
	options := func(stateDir string) buildsys.Options {
		o := buildsys.Options{Mode: compiler.ModeStateful, StateDir: stateDir}
		if v.mutate != nil {
			v.mutate(&o)
		}
		return o
	}

	var resident, publisher *buildsys.Builder
	var prev map[string]int64 // resident builder's counters before the build
	var cacheURL string
	if e.spec.Remote {
		// A fleet cache another runner keeps warm. The publisher uses the
		// same wire client as the runner under test.
		url, stop := startCache()
		defer stop()
		cacheURL = url
		var err error
		publisher, err = buildsys.NewBuilder(buildsys.Options{Mode: options("").Mode, CAS: cas.NewHTTPCAS(cacheURL, "")})
		if err != nil {
			return nil, err
		}
		if err := buildClean(publisher, e.base, true); err != nil {
			return nil, fmt.Errorf("seeding the shared cache: %w", err)
		}
	} else {
		if err := copyDir(filepath.Join(e.fixtureDir, stateDirName), res.StateDir); err != nil {
			return nil, err
		}
		if !e.spec.Fresh {
			var err error
			if resident, err = buildsys.NewBuilder(options(res.StateDir)); err != nil {
				return nil, err
			}
			if err := buildClean(resident, e.base, v.mutate == nil); err != nil {
				return nil, fmt.Errorf("priming build: %w", err)
			}
			prev = resident.Metrics()
		}
	}
	res.SetupS = time.Since(setupStart).Seconds()

	for i, snap := range commits {
		var o buildsys.Options
		switch {
		case e.spec.Remote:
			if err := buildClean(publisher, snap, true); err != nil {
				return nil, fmt.Errorf("publishing commit %d: %w", i, err)
			}
			// A runner that has never built this project.
			res.StateDir = filepath.Join(dir, fmt.Sprintf("runner-%03d", i))
			o = options(res.StateDir)
			if o.CAS == nil {
				o.CAS = cas.NewHTTPCAS(cacheURL, "")
			}
		case e.spec.Fresh:
			o = options(res.StateDir)
		}

		var mem0, mem1 runtime.MemStats
		if v.reference {
			runtime.ReadMemStats(&mem0)
		}
		before := probeMS()
		cpu0, t0 := cpuMS(), time.Now()
		b := resident
		var err error
		if b == nil {
			b, err = buildsys.NewBuilder(o)
		}
		var rep *buildsys.Report
		if err == nil {
			rep, err = b.Build(snap)
		}
		wall, cpu := ms(time.Since(t0)), cpuMS()-cpu0
		speed := speedBetween(before, probeMS())
		if v.reference {
			runtime.ReadMemStats(&mem1)
			res.AllocBytes += mem1.TotalAlloc - mem0.TotalAlloc
		}
		res.RawMS = append(res.RawMS, wall)
		res.RawCPUMS = append(res.RawCPUMS, cpu)
		res.BuildMS = append(res.BuildMS, wall*speed)
		res.CPUMS = append(res.CPUMS, cpu*speed)
		res.Speed = append(res.Speed, speed)

		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("build %d: %v", i, err))
			res.Builds = append(res.Builds, buildStat{})
			continue
		}
		if len(rep.Warnings) > 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("build %d ran degraded: %s", i, rep.Warnings[0]))
		}
		delta := rep.Metrics
		if resident != nil {
			delta = make(map[string]int64, len(rep.Metrics))
			for k, n := range rep.Metrics {
				delta[k] = n - prev[k]
			}
			prev = rep.Metrics
		}
		for k, n := range delta {
			res.Counters[k] += n
			if strings.HasSuffix(k, "_ns") {
				res.NS[k] += float64(n) * speed
			}
		}
		for name, sl := range rep.Stats().ByPass() {
			res.PassNS[name] += float64(sl.RunNS) * speed
		}
		res.Builds = append(res.Builds, buildStat{
			Compiled: rep.UnitsCompiled, Cached: rep.UnitsCached, Remote: rep.UnitsRemote,
			StateLoads:   delta[obs.CtrStateLoads],
			PassSkips:    delta[obs.CtrPassSkipped],
			VerifyFailed: delta[obs.CtrCASVerifyFailed],
		})
		if rep.UnitsCompiled+rep.UnitsRemote > 0 {
			res.Utilization = append(res.Utilization, rep.Utilization())
		}
		if e.spec.Remote {
			res.CASFetch = res.CASFetch.Merge(b.Histograms()[obs.HistCASFetchNS])
		}
		if v.reference || sampled(i, len(commits)) {
			res.Digest[i] = digest(rep.Program)
		}
		res.Final = rep.Program
	}
	kib, err := stateKiB(res.StateDir)
	if err != nil {
		return nil, err
	}
	res.StateKiB = kib
	res.PeakRSSMB = peakRSSMB()
	if v.reference {
		hpath := history.Path(res.StateDir)
		if st, err := os.Stat(hpath); err == nil {
			res.History.KiB = float64(st.Size()) / 1024
		}
		var recs []history.Record
		var err error
		res.History.LoadMS = nominalMS(func() { recs, err = history.Load(hpath) })
		if err != nil || len(recs) == 0 {
			return nil, fmt.Errorf("reference round left no flight-recorder records (%v)", err)
		}
		res.History.Records = len(recs)
		res.History.Last = &recs[len(recs)-1]
	}
	return res, nil
}

// startCache serves an empty in-memory shared cache on loopback HTTP and
// returns its address and the function that shuts it down.
func startCache() (url string, stop func()) {
	server := httptest.NewServer(cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{}).Handler())
	return server.URL, func() {
		server.Close()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
}

// buildClean runs an untimed build that must not fail nor, under the
// product defaults, degrade (a replay that strays from them on purpose, such
// as one against a refused cache, may warn).
func buildClean(b *buildsys.Builder, snap project.Snapshot, strict bool) error {
	rep, err := b.Build(snap)
	if err != nil {
		return err
	}
	if strict && len(rep.Warnings) > 0 {
		return fmt.Errorf("ran degraded: %s", rep.Warnings[0])
	}
	return nil
}

// oracle is the reference every round is held to, computed once per process
// after the measured builds so that it costs them neither time nor memory.
type oracle struct {
	digest map[int][32]byte // sampled commit → from-scratch stateless program
	output string           // QuickPipeline build of the last commit, run
	exit   int64
}

// scratchProgram builds snap from nothing with a stateless builder.
func scratchProgram(snap project.Snapshot, pipeline []string) (*codegen.Program, error) {
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless, Pipeline: pipeline})
	if err != nil {
		return nil, err
	}
	rep, err := b.Build(snap)
	if err != nil {
		return nil, err
	}
	return rep.Program, nil
}

func newOracle(commits []project.Snapshot) (*oracle, error) {
	o := &oracle{digest: map[int][32]byte{}}
	for i, snap := range commits {
		if !sampled(i, len(commits)) {
			continue
		}
		p, err := scratchProgram(snap, nil)
		if err != nil {
			return nil, fmt.Errorf("oracle: stateless build of commit %d: %w", i, err)
		}
		o.digest[i] = digest(p)
	}
	// A different optimisation level, so passes, core and state are not
	// their own reference for what the program computes.
	p, err := scratchProgram(commits[len(commits)-1], passes.QuickPipeline)
	if err != nil {
		return nil, fmt.Errorf("oracle: quick-pipeline build: %w", err)
	}
	out, res, err := vm.RunCapture(p, vm.Config{})
	if err != nil {
		return nil, fmt.Errorf("oracle: running the quick-pipeline program: %w", err)
	}
	o.output, o.exit = out, res.ExitValue
	return o, nil
}

// check holds one round to the oracle and returns the mismatches, the
// final program's step count and the time the VM took.
func (o *oracle) check(r *roundResult) (failures []string, steps int64, vmMS float64) {
	for i, want := range o.digest {
		if r.Digest[i] != want {
			failures = append(failures, fmt.Sprintf("build %d: program differs from the from-scratch stateless build", i))
		}
	}
	if r.Final == nil {
		return append(failures, "no final program"), 0, 0
	}
	var out string
	var res *vm.Result
	var err error
	vmMS = nominalMS(func() { out, res, err = vm.RunCapture(r.Final, vm.Config{}) })
	if err != nil {
		return append(failures, fmt.Sprintf("final program trapped: %v", err)), 0, vmMS
	}
	if out != o.output || res.ExitValue != o.exit {
		failures = append(failures, "final program's output or exit value differs from the quick-pipeline build")
	}
	return failures, res.Steps, vmMS
}

// Command benchmark is the repository's benchmark of record: four workloads
// over a lived-in megarepo checkout, measured end to end with tracing off,
// and a separate traced run that budgets each layer from outside. See
// README.md in this directory.
//
//	go run ./benchmark --workload edit_loop --seed 7 --seconds 10 --trace 0
//	go run ./benchmark -seed 7 -rounds 3 -out report.json
//	go run ./benchmark -compare base.json cand.json
//	go run ./benchmark -aa
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed of a run that names none. The harness's own tests
// use single-digit seeds, so nothing was tuned against this one.
const defaultSeed = 20240917

// buildDir is where the benchmark keeps everything it writes, relative to
// the directory it is run from.
const buildDir = ".bench_build"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options is the parsed command line.
type options struct {
	cfg      config
	workload string
	seconds  float64
	trace    int
	rounds   int
	out      string
	compare  bool
	aa       bool

	// Set by a parent for the workload process it starts.
	child   bool
	fixture string
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "seed of the edit stream; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 12, "with -workload: measure whole rounds until this much build time is measured")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 makes the traced run and reports the per-layer metrics")
	fs.IntVar(&o.rounds, "rounds", 3, "full run: rounds per workload (more are added, up to 10, while a workload has under 20 s measured)")
	fs.StringVar(&o.out, "out", "", "full run: write the report to this file as JSON")
	fs.BoolVar(&o.compare, "compare", false, "compare two reports: -compare BASE.json CANDIDATE.json; exit 0 pass, 1 regress, 2 unresolved")
	fs.BoolVar(&o.aa, "aa", false, "make the full run twice and compare it with itself")
	fs.BoolVar(&o.child, "child", false, "internal: run as a workload process of a parent benchmark")
	fs.StringVar(&o.fixture, "fixture", "", "internal: fixture directory handed to a workload process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.cfg = recordConfig(*seed)

	var err error
	code := 0
	switch {
	case o.compare:
		code, err = runCompare(fs.Args(), stdout)
	case o.child:
		err = runChild(o, stdout)
	case o.workload != "":
		err = runContract(ctx, o, stdout, stderr)
	case o.aa:
		code, err = runAA(ctx, o, stdout, stderr)
	default:
		_, err = runFull(ctx, o, o.out, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.Name)
	}
	return strings.Join(names, ", ")
}

// roundMetrics is one round's end-to-end values.
type roundMetrics struct {
	P50        float64 `json:"build_ms_p50"`
	P90        float64 `json:"build_ms_p90"`
	BuildsPerS float64 `json:"builds_per_s"`
	CPUMS      float64 `json:"cpu_ms_per_build"`
	SetupS     float64 `json:"setup_s"`
	StateKiB   float64 `json:"state_kib"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Steps      float64 `json:"program_steps"`
	MeasuredS  float64 `json:"measured_s"`
	Samples    int     `json:"samples"`
	// What the clock read, and the machine's speed the timings above were
	// brought to nominal with (the median over the round's builds).
	RawP50   float64 `json:"raw_build_ms_p50"`
	RawCPUMS float64 `json:"raw_cpu_ms_per_build"`
	Speed    float64 `json:"machine_speed"`
}

// childResult is what a workload process reports to its parent, as one line
// of JSON on standard output.
type childResult struct {
	Rounds    []roundMetrics     `json:"rounds,omitempty"`
	ReplayS   float64            `json:"replay_s"` // re-deriving the inputs from the seed
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runChild is a workload's own process, so that its peak memory and
// collector state are its own.
func runChild(o options, stdout io.Writer) error {
	sp, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	work, err := os.MkdirTemp(filepath.Dir(o.fixture), "workload-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	t0 := time.Now()
	e, err := newEnv(o.cfg, sp, o.fixture, work)
	if err != nil {
		return err
	}
	res := &childResult{ReplayS: time.Since(t0).Seconds()}
	if o.trace == 1 {
		err = traced(e, spansFile(o.workload, o.cfg.Seed), res)
	} else {
		err = measured(e, o.seconds, o.rounds, res)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// measured runs whole rounds with tracing off: exactly rounds of them, or,
// when rounds is 0, until the measured build time reaches seconds. Rounds
// that got fast stop on wall time instead, since each also pays an untimed
// priming build.
func measured(e *env, seconds float64, rounds int, res *childResult) error {
	start := time.Now()
	var results []*roundResult
	var total float64
	for {
		r, err := e.round(variant{})
		if err != nil {
			return err
		}
		results = append(results, r)
		total += sum(r.RawMS) / 1e3
		if rounds > 0 {
			if len(results) == rounds {
				break
			}
		} else if total >= seconds || time.Since(start).Seconds() >= 2.5*seconds || len(results) == 64 {
			break
		}
	}
	// The oracle builds only now, after every round has read its resident
	// high-water mark: the mark is the workload's, not the reference
	// compiler's.
	orc, err := newOracle(e.commits)
	if err != nil {
		return err
	}
	for i, r := range results {
		if err := e.spec.engaged(len(e.base), r.Builds); err != nil {
			return fmt.Errorf("%s did not take the path it measures (round %d): %w", e.spec.Name, i+1, err)
		}
		failures, steps, _ := orc.check(r)
		res.Failures = append(res.Failures, append(r.Failures, failures...)...)
		res.Attempted += len(r.BuildMS)
		res.Rounds = append(res.Rounds, roundMetrics{
			P50: quantile(r.BuildMS, 0.5), P90: quantile(r.BuildMS, 0.9),
			BuildsPerS: 1e3 / mean(r.BuildMS), CPUMS: mean(r.CPUMS),
			SetupS: r.SetupS, StateKiB: r.StateKiB, Steps: float64(steps), PeakRSSMB: r.PeakRSSMB,
			MeasuredS: sum(r.RawMS) / 1e3, Samples: len(r.BuildMS),
			RawP50: median(r.RawMS), RawCPUMS: mean(r.RawCPUMS), Speed: median(r.Speed),
		})
	}
	return nil
}

// traced makes the traced run and writes its spans.
func traced(e *env, spansPath string, res *childResult) error {
	tr, err := e.traceRun()
	if err != nil {
		return err
	}
	res.Attempted, res.Failures, res.Layers = tr.Attempted, tr.Failures, tr.Layers
	f, err := os.Create(spansPath)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tr.Spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resetPeakRSS restarts the resident high-water mark at the current resident
// size, so that each round reads its own peak. Where the kernel or the
// sandbox refuses, the mark stays the process's.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// session is a parent's scratch space: the fixture and the workload
// processes started against it.
type session struct {
	o       options
	dir     string
	fixture fixtureInfo
	stderr  io.Writer
}

func newSession(o options, stderr io.Writer) (*session, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	s := &session{o: o, dir: dir, stderr: stderr}
	fmt.Fprintf(stderr, "fixture: %s, cold build + %d commits, seed %d\n", o.cfg.Profile, o.cfg.Warm, o.cfg.Seed)
	s.fixture, err = buildFixture(filepath.Join(dir, "fixture"), o.cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fmt.Fprintf(stderr, "fixture: %.1f s, cold build %.0f ms, %d flight-recorder records\n",
		s.fixture.Seconds, s.fixture.ColdBuildMS, s.fixture.Records)
	return s, nil
}

func (s *session) close() { os.RemoveAll(s.dir) }

// spansFile is where a traced run of the workload leaves its spans.
func spansFile(workload string, seed int64) string {
	return filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
}

// workload starts one workload process and waits for its result.
func (s *session) workload(ctx context.Context, name string, trace, rounds int, seconds float64) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", name, "-fixture", s.fixture.Dir,
		"-seed", strconv.FormatInt(s.o.cfg.Seed, 10),
		"-trace", strconv.Itoa(trace), "-rounds", strconv.Itoa(rounds),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = s.stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload %s: unreadable result: %w", name, err)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(s.stderr, "%s: FAILED %s\n", name, f)
	}
	return &res, nil
}

// endToEndValues folds a workload's rounds into its end-to-end metrics: the
// median over rounds of each per-round value. Set-up is the fixture, the
// workload process re-deriving its inputs, and the median round's copy and
// priming.
func endToEndValues(fixtureS float64, rounds []roundMetrics, replayS float64) map[string]value {
	samples := 0
	for _, r := range rounds {
		samples += r.Samples
	}
	cols := map[string][]float64{
		"build_ms_p50":     column(rounds, func(r roundMetrics) float64 { return r.P50 }),
		"build_ms_p90":     column(rounds, func(r roundMetrics) float64 { return r.P90 }),
		"builds_per_s":     column(rounds, func(r roundMetrics) float64 { return r.BuildsPerS }),
		"cpu_ms_per_build": column(rounds, func(r roundMetrics) float64 { return r.CPUMS }),
		"setup_s":          column(rounds, func(r roundMetrics) float64 { return fixtureS + replayS + r.SetupS }),
		"peak_rss_mb":      column(rounds, func(r roundMetrics) float64 { return r.PeakRSSMB }),
		"state_kib":        column(rounds, func(r roundMetrics) float64 { return r.StateKiB }),
		"program_steps":    column(rounds, func(r roundMetrics) float64 { return r.Steps }),
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		v := value{Unit: m.Unit}
		if xs, ok := cols[m.Name]; ok {
			v.Value, v.IQR, v.N = median(xs), iqr(xs), len(xs)
		}
		if m.Name == "build_ms_p50" || m.Name == "build_ms_p90" {
			v.Samples = samples
		}
		out[m.Name] = v
	}
	return out
}

func column(rounds []roundMetrics, f func(roundMetrics) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return xs
}

// uncalibratedValues folds the rounds' raw readings and machine speed the
// way endToEndValues folds the metrics.
func uncalibratedValues(rounds []roundMetrics) map[string]value {
	cols := map[string][]float64{
		"raw_build_ms_p50":     column(rounds, func(r roundMetrics) float64 { return r.RawP50 }),
		"raw_cpu_ms_per_build": column(rounds, func(r roundMetrics) float64 { return r.RawCPUMS }),
		"machine_speed":        column(rounds, func(r roundMetrics) float64 { return r.Speed }),
	}
	out := map[string]value{}
	for _, m := range uncalibrated {
		xs := cols[m.Name]
		out[m.Name] = value{Value: median(xs), Unit: m.Unit, IQR: iqr(xs), N: len(xs)}
	}
	return out
}

// result is the last line a -workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runContract is the entry point a driver calls: one workload, one result.
func runContract(ctx context.Context, o options, stdout, stderr io.Writer) error {
	if _, ok := specByName(o.workload); !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	s, err := newSession(o, stderr)
	if err != nil {
		return err
	}
	defer s.close()
	res, err := s.workload(ctx, o.workload, o.trace, 0, o.seconds)
	if err != nil {
		return err
	}
	out := result{Attempted: res.Attempted, Failed: len(res.Failures), Metrics: map[string]value{}}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	if o.trace == 1 {
		for _, m := range perLayer {
			out.Metrics[m.Name] = value{Value: res.Layers[m.Name], Unit: m.Unit}
		}
		for _, line := range budgetLines(res.Layers) {
			fmt.Fprintln(stderr, line)
		}
		fmt.Fprintf(stderr, "spans: %s\n", spansFile(o.workload, o.cfg.Seed))
	} else {
		for name, v := range endToEndValues(s.fixture.Seconds, res.Rounds, res.ReplayS) {
			out.Metrics[name] = value{Value: v.Value, Unit: v.Unit}
		}
		fmt.Fprintf(stderr, "%s: %d rounds, %d builds\n", o.workload, len(res.Rounds), res.Attempted)
		raw := uncalibratedValues(res.Rounds)
		for _, m := range uncalibrated {
			fmt.Fprintf(stderr, "%s: %s %.4f %s\n", o.workload, m.Name, raw[m.Name].Value, m.Unit)
		}
	}
	return json.NewEncoder(stdout).Encode(out)
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func gitRevision(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runFull is the whole benchmark in one command: the fixture once, the four
// workloads' rounds interleaved round-robin (each round in a process of its
// own), then one traced run per workload.
func runFull(ctx context.Context, o options, outPath string, stdout, stderr io.Writer) (*report, error) {
	started := time.Now()
	meta := map[string]any{
		"seed": o.cfg.Seed, "profile": o.cfg.Profile, "warm_commits": o.cfg.Warm,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"git_revision": gitRevision(ctx), "loadavg_start": loadavg(),
	}
	s, err := newSession(o, stderr)
	if err != nil {
		return nil, err
	}
	defer s.close()

	type acc struct {
		rounds    []roundMetrics
		replayS   []float64
		attempted int
		failed    int
		measuredS float64
	}
	accs := map[string]*acc{}
	for _, sp := range specs {
		accs[sp.Name] = &acc{}
	}
	for round := 0; round < 10; round++ {
		ran := false
		for _, sp := range specs {
			a := accs[sp.Name]
			if round >= o.rounds && a.measuredS >= 20 {
				continue
			}
			res, err := s.workload(ctx, sp.Name, 0, 1, 0)
			if err != nil {
				return nil, err
			}
			ran = true
			a.rounds = append(a.rounds, res.Rounds...)
			a.replayS = append(a.replayS, res.ReplayS)
			a.attempted += res.Attempted
			a.failed += len(res.Failures)
			for _, r := range res.Rounds {
				a.measuredS += r.MeasuredS
			}
			fmt.Fprintf(stderr, "round %d %-14s p50 %.2f ms\n", round+1, sp.Name, res.Rounds[0].P50)
		}
		if !ran {
			break
		}
	}
	untraced := time.Since(started)

	rep := &report{Meta: meta, Workloads: map[string]workloadReport{}}
	rounds, samples := map[string]int{}, map[string]int{}
	for _, sp := range specs {
		a := accs[sp.Name]
		wr := workloadReport{Rounds: len(a.rounds), Attempted: a.attempted, Failed: a.failed,
			EndToEnd:     endToEndValues(s.fixture.Seconds, a.rounds, median(a.replayS)),
			Uncalibrated: uncalibratedValues(a.rounds), PerLayer: map[string]value{}}
		res, err := s.workload(ctx, sp.Name, 1, 0, 0)
		if err != nil {
			return nil, err
		}
		wr.Attempted += res.Attempted
		wr.Failed += len(res.Failures)
		for _, m := range perLayer {
			wr.PerLayer[m.Name] = value{Value: res.Layers[m.Name], Unit: m.Unit}
		}
		rep.Workloads[sp.Name] = wr
		rounds[sp.Name], samples[sp.Name] = len(a.rounds), a.attempted
	}
	meta["rounds"], meta["samples"] = rounds, samples
	meta["loadavg_end"] = loadavg()
	meta["untraced_wall_s"] = untraced.Seconds()
	meta["traced_wall_s"] = (time.Since(started) - untraced).Seconds()

	printReport(stdout, rep)
	for _, sp := range specs {
		L := map[string]float64{}
		for name, v := range rep.Workloads[sp.Name].PerLayer {
			L[name] = v.Value
		}
		fmt.Fprintf(stdout, "\nlayer budget, %s (traced run):\n", sp.Name)
		for _, line := range budgetLines(L) {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	for name, wr := range rep.Workloads {
		if wr.Failed > 0 {
			return rep, fmt.Errorf("%s: %d of %d builds failed", name, wr.Failed, wr.Attempted)
		}
	}
	return rep, nil
}

// verdictCode maps a comparison's verdict to the exit status CI branches on.
func verdictCode(v string) int {
	switch v {
	case verdictRegress:
		return 1
	case verdictUnresolved:
		return 2
	}
	return 0
}

func runCompare(args []string, stdout io.Writer) (int, error) {
	if len(args) != 2 {
		return 0, errors.New("-compare takes two report files: BASE.json CANDIDATE.json")
	}
	a, err := readReport(args[0])
	if err != nil {
		return 0, err
	}
	b, err := readReport(args[1])
	if err != nil {
		return 0, err
	}
	return verdictCode(compare(stdout, a, b)), nil
}

// runAA makes the full run twice on the same code and seed and holds the
// second to the first: the benchmark's own noise floor against its bounds.
func runAA(ctx context.Context, o options, stdout, stderr io.Writer) (int, error) {
	var reps [2]*report
	for i := range reps {
		out := ""
		if o.out != "" {
			out = fmt.Sprintf("%s.%d", o.out, i+1)
		}
		rep, err := runFull(ctx, o, out, io.Discard, stderr)
		if err != nil {
			return 0, err
		}
		reps[i] = rep
	}
	return verdictCode(compare(stdout, reps[0], reps[1])), nil
}

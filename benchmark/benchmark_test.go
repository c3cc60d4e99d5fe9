package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/history"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// smokeConfig is the benchmark at toy size: tinyutil, five warm-up commits,
// three measured commits a round.
func smokeConfig(seed int64) config {
	return config{Profile: "tinyutil", Warm: 5, Commits: 3, Seed: seed}
}

// smokeRun makes one measured round and one traced run of every workload
// and returns each workload's metrics by name.
func smokeRun(t *testing.T, cfg config) map[string]map[string]float64 {
	t.Helper()
	dir := t.TempDir()
	fx, err := buildFixture(filepath.Join(dir, "fixture"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]float64{}
	for _, sp := range specs {
		metrics := map[string]float64{}
		out[sp.Name] = metrics
		for trace := 0; trace <= 1; trace++ {
			work, err := os.MkdirTemp(dir, "workload-")
			if err != nil {
				t.Fatal(err)
			}
			e, err := newEnv(cfg, sp, fx.Dir, work)
			if err != nil {
				t.Fatal(err)
			}
			res := &childResult{}
			if trace == 1 {
				err = traced(e, filepath.Join(work, "spans.json"), res)
			} else {
				err = measured(e, 0, 1, res)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", sp.Name, trace, err)
			}
			if len(res.Failures) > 0 || res.Attempted != cfg.Commits {
				t.Fatalf("%s trace=%d: %d builds attempted, failures %v", sp.Name, trace, res.Attempted, res.Failures)
			}
			if trace == 1 {
				for _, m := range perLayer {
					v, ok := res.Layers[m.Name]
					if !ok {
						t.Errorf("%s: per-layer metric %s missing", sp.Name, m.Name)
					}
					metrics[m.Name] = v
				}
				continue
			}
			for name, v := range endToEndValues(fx.Seconds, res.Rounds, res.ReplayS) {
				metrics[name] = v.Value
			}
			// The raw readings travel with the calibrated ones.
			for name, v := range uncalibratedValues(res.Rounds) {
				if v.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", sp.Name, name, v.Value)
				}
			}
			for _, m := range endToEnd {
				if metrics[m.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.Name, m.Name, metrics[m.Name])
				}
			}
		}
	}
	return out
}

// TestSmokeAndDeterminism runs the whole benchmark at toy size: every
// workload and metric is present, nothing fails, and the decomposed replay
// links the same programs as Builder.Build (the traced run errors
// otherwise). Then it measures each workload again from a second fixture of
// the same seed: the metrics that count the inputs repeat.
func TestSmokeAndDeterminism(t *testing.T) {
	cfg := smokeConfig(1)
	first := smokeRun(t, cfg)

	dir := t.TempDir()
	fx, err := buildFixture(filepath.Join(dir, "fixture"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		e, err := newEnv(cfg, sp, fx.Dir, filepath.Join(dir, sp.Name))
		if err != nil {
			t.Fatal(err)
		}
		res := &childResult{}
		if err := measured(e, 0, 1, res); err != nil {
			t.Fatal(err)
		}
		ref, err := e.round(variant{reference: true})
		if err != nil {
			t.Fatal(err)
		}
		var compiled float64
		for _, b := range ref.Builds {
			compiled += float64(b.Compiled)
		}
		m := float64(cfg.Commits)
		again := map[string]float64{
			"program_steps":           res.Rounds[0].Steps,
			"core.pass_skips":         float64(ref.Counters["pass.skipped"]) / m,
			"buildsys.units_compiled": compiled / m,
			"cas.fetches":             float64(ref.Counters["cas.hit"]+ref.Counters["cas.miss"]) / m,
		}
		for name, v := range again {
			if first[sp.Name][name] != v {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", sp.Name, name, first[sp.Name][name], v)
			}
		}
		// A state record holds a smoothed pass cost as a varint, so a state
		// file's size moves by a few bytes with timing.
		ka, kb := first[sp.Name]["state_kib"], res.Rounds[0].StateKiB
		if d := (ka - kb) / ka; d > 0.02 || d < -0.02 {
			t.Errorf("%s: state_kib %v vs %v between two runs of one seed", sp.Name, ka, kb)
		}
	}
	if first["fresh_runner"]["cas.fetches"] == 0 || first["edit_loop"]["core.pass_skips"] == 0 {
		t.Errorf("counts are zero where the workload is about them: %v fetches, %v skips",
			first["fresh_runner"]["cas.fetches"], first["edit_loop"]["core.pass_skips"])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in report.go and
// workloads.go equal.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := file.Workloads[i]; w.Name != sp.Name || w.Why != sp.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (why at most 200 characters, equal on both sides)", i, w.Name, sp.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if file.EndToEnd[i] != m || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, file.EndToEnd[i], m)
		}
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if p := file.PerLayer[i]; p.Name != m.Name || p.Unit != m.Unit || p.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, p, m)
		}
	}
}

// TestEngagementAssertions shows each workload's assertion failing when the
// path it measures was not taken.
func TestEngagementAssertions(t *testing.T) {
	const units = 208
	good := map[string]buildStat{
		"edit_loop":     {Compiled: 2, Cached: 206, PassSkips: 150},
		"fresh_process": {Compiled: units, StateLoads: units},
		"wide_pull":     {Compiled: 30, Cached: 178},
		"fresh_runner":  {Cached: units, Remote: units},
	}
	bad := map[string]buildStat{
		"edit_loop":     {Compiled: 2, Cached: 206},                    // nothing skipped: state was cold
		"fresh_process": {Compiled: units, StateLoads: 0},              // state directory was empty
		"wide_pull":     {Compiled: 2, Cached: 206},                    // the commit was not wide
		"fresh_runner":  {Compiled: units, Cached: 0, VerifyFailed: 0}, // the cache was empty
	}
	for _, sp := range specs {
		if err := sp.engaged(units, []buildStat{good[sp.Name], good[sp.Name]}); err != nil {
			t.Errorf("%s: engaged run rejected: %v", sp.Name, err)
		}
		if err := sp.engaged(units, []buildStat{bad[sp.Name], bad[sp.Name]}); err == nil {
			t.Errorf("%s: a run off the measured path was accepted", sp.Name)
		}
		// edit_loop asks for cache hits and skips somewhere in the round (a
		// commit may touch nothing skippable); the others ask every build.
		mixed := sp.engaged(units, []buildStat{good[sp.Name], bad[sp.Name]})
		if perRound := sp.Name == "edit_loop"; (mixed == nil) != perRound {
			t.Errorf("%s: one build off the measured path among good ones: %v", sp.Name, mixed)
		}
	}
}

// TestFreshRunnerAgainstEmptyCacheFails points the runner at a cache nobody
// published to: the round compiles everything locally and must be refused,
// not reported as a fetch time.
func TestFreshRunnerAgainstEmptyCacheFails(t *testing.T) {
	cfg := smokeConfig(2)
	sp, _ := specByName("fresh_runner")
	e, err := newEnv(cfg, sp, filepath.Join(t.TempDir(), "no-fixture-needed"), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	empty := httptest.NewServer(cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{}).Handler())
	defer empty.Close()
	r, err := e.round(variant{mutate: func(o *buildsys.Options) {
		o.CAS = cas.NewHTTPCAS(empty.URL, "")
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = sp.engaged(len(e.base), r.Builds)
	if err == nil || !strings.Contains(err.Error(), "fetched 0 units") {
		t.Fatalf("engagement assertion on an empty cache: %v", err)
	}
}

// compiles reports whether every unit of snap passes the frontend.
func compiles(snap project.Snapshot) error {
	for _, name := range snap.Units() {
		if _, err := compiler.Frontend(name, snap[name]); err != nil {
			return err
		}
	}
	return nil
}

// TestOneEditorPerStream shows the collision the stream works around: a
// second Editor started on an edited tree re-issues helper names and the
// project stops compiling, while the stream's own Editor goes on for as long
// as asked.
func TestOneEditorPerStream(t *testing.T) {
	cfg := smokeConfig(2)
	cfg.Warm = 40
	s, err := warmed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := compiles(s.snap); err != nil {
		t.Fatalf("fixture tree does not compile: %v", err)
	}

	fresh, snap := workload.NewEditor(cfg.Seed), s.snap
	var collision error
	for i := 0; i < 200 && collision == nil; i++ {
		snap, _ = fresh.Commit(snap, workload.DefaultCommitOptions())
		collision = compiles(snap)
	}
	if collision == nil {
		t.Fatal("a fresh Editor on the edited tree never collided: the work-around is no longer needed")
	}
	t.Logf("fresh Editor: %v", collision)

	for i := 0; i < 200; i++ {
		s.next(workload.DefaultCommitOptions())
	}
	if err := compiles(s.snap); err != nil {
		t.Fatalf("the stream's own Editor broke the project: %v", err)
	}
}

// TestFixtureHistoryEqualsRealAppends holds the fixture's assembled flight
// recorder to the file the same builds leave when each appends for real.
func TestFixtureHistoryEqualsRealAppends(t *testing.T) {
	cfg := smokeConfig(2)
	fx, err := buildFixture(filepath.Join(t.TempDir(), "fixture"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := history.Load(history.Path(filepath.Join(fx.Dir, stateDirName)))
	if err != nil {
		t.Fatal(err)
	}

	stateDir := filepath.Join(t.TempDir(), stateDirName)
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := cfg.profile()
	s := newStream(p, cfg.Seed)
	if err := buildClean(b, s.snap, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Warm; i++ {
		if err := buildClean(b, s.next(workload.DefaultCommitOptions()), true); err != nil {
			t.Fatal(err)
		}
	}
	want, err := history.Load(history.Path(stateDir))
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) || len(got) != cfg.Warm+1 || fx.Records != len(got) {
		t.Fatalf("fixture has %d records (reports %d), real appends %d", len(got), fx.Records, len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Seq != w.Seq || g.UnitsCompiled != w.UnitsCompiled || g.UnitsCached != w.UnitsCached ||
			len(g.Units) != len(w.Units) || len(g.Timeline.Events) != len(w.Timeline.Events) ||
			g.Metrics["pass.skipped"] != w.Metrics["pass.skipped"] || g.Metrics["build.count"] != w.Metrics["build.count"] {
			t.Errorf("record %d: fixture seq %d compiled %d skipped %d, real seq %d compiled %d skipped %d",
				i, g.Seq, g.UnitsCompiled, g.Metrics["pass.skipped"], w.Seq, w.UnitsCompiled, w.Metrics["pass.skipped"])
		}
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqr(xs); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := iqr([]float64{4, 1, 2}); got != 3 {
		t.Errorf("iqr of three = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 9.1 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
}

// flatReport is a report in which every end-to-end metric of every workload
// reads 100 with the given spread.
func flatReport(seed int, spread float64) *report {
	r := &report{Meta: map[string]any{"seed": seed}, Workloads: map[string]workloadReport{}}
	for _, sp := range specs {
		wr := workloadReport{Rounds: 3, Attempted: 48, EndToEnd: map[string]value{}}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = value{Value: 100, Unit: m.Unit, IQR: spread, N: 3}
		}
		r.Workloads[sp.Name] = wr
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	set := func(r *report, workload, metric string, v float64) {
		val := r.Workloads[workload].EndToEnd[metric]
		val.Value = v
		r.Workloads[workload].EndToEnd[metric] = val
	}
	var sink bytes.Buffer

	if v := compare(&sink, flatReport(1, 1), flatReport(1, 1)); v != verdictPass {
		t.Errorf("equal reports: %s\n%s", v, sink.String())
	}

	slower := flatReport(2, 1)
	set(slower, "wide_pull", "build_ms_p50", 126) // 26% worse, bound 25%
	if v := compare(&sink, flatReport(1, 1), slower); v != verdictRegress {
		t.Errorf("26%% slower p50: %s", v)
	}
	within := flatReport(2, 1)
	set(within, "wide_pull", "build_ms_p50", 124)
	set(within, "wide_pull", "builds_per_s", 76) // higher is better: 24% worse
	if v := compare(&sink, flatReport(1, 1), within); v != verdictPass {
		t.Errorf("24%% worse on two metrics: %s", v)
	}
	fewer := flatReport(2, 1)
	set(fewer, "edit_loop", "builds_per_s", 70)
	if v := compare(&sink, flatReport(1, 1), fewer); v != verdictRegress {
		t.Errorf("30%% fewer builds per second: %s", v)
	}

	if v := compare(&sink, flatReport(1, 30), flatReport(2, 1)); v != verdictUnresolved {
		t.Errorf("baseline spread of 30%%: %s", v)
	}

	steps := flatReport(1, 0)
	set(steps, "edit_loop", "program_steps", 100.5) // inside the 1% bound, but the seed is the same
	if v := compare(&sink, flatReport(1, 0), steps); v != verdictRegress {
		t.Errorf("program_steps moved at equal seed: %s", v)
	}
	steps.Meta["seed"] = 2
	if v := compare(&sink, flatReport(1, 0), steps); v != verdictPass {
		t.Errorf("program_steps 0.5%% apart at different seeds: %s", v)
	}

	failed := flatReport(1, 1)
	wr := failed.Workloads["fresh_runner"]
	wr.Failed = 1
	failed.Workloads["fresh_runner"] = wr
	if v := compare(&sink, flatReport(1, 1), failed); v != verdictRegress {
		t.Errorf("a failed build: %s", v)
	}
}

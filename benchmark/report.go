package main

// Metric names, units and regression bounds; the statistics every report
// uses; and the comparison of two reports. BENCHMARK.json at the root of the
// repository repeats the two tables below (benchmark_test.go keeps them
// equal).

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"statefulcc/internal/passes"
)

// metricDef names one metric. Bound is the share of the baseline's median
// by which an end-to-end metric may get worse before -compare calls it a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the build system sees, the same set on every
// workload. The share of builds that failed is not in the table because it
// must be zero: it is the failed/attempted pair of every result, and a run
// with a failed build is not correct.
var endToEnd = []metricDef{
	{"build_ms_p50", "ms", lower, 0.25},
	{"build_ms_p90", "ms", lower, 0.25},
	{"builds_per_s", "builds/s", higher, 0.25},
	{"cpu_ms_per_build", "ms", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
	{"state_kib", "KiB", lower, 0.06},
	{"program_steps", "count", lower, 0.01},
}

// uncalibrated names the raw readings a report carries beside the end-to-end
// timings, which are at the machine's nominal speed (probe.go).
var uncalibrated = []metricDef{
	{Name: "raw_build_ms_p50", Unit: "ms"},
	{Name: "raw_cpu_ms_per_build", Unit: "ms"},
	{Name: "machine_speed", Unit: "ratio"},
}

// exact lists the end-to-end metrics that are counts of the inputs: two
// reports made with the same seed must agree on them to the digit
// (state_kib only nearly: a state record stores a smoothed pass cost as a
// varint, so the files' sizes move with timing, by 0.1 % between two runs).
var exact = map[string]float64{"program_steps": 0, "state_kib": 0.005}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "history.append_ms", Unit: "ms", Better: lower},
		{Name: "history.load_ms", Unit: "ms", Better: lower},
		{Name: "history.overhead_ms", Unit: "ms", Better: lower},
		{Name: "history.file_kib", Unit: "KiB", Better: lower},
		{Name: "history.records", Unit: "count", Better: lower},

		{Name: "compiler.frontend_ms", Unit: "ms", Better: lower},
		{Name: "parser.parse_ms", Unit: "ms", Better: lower},
		{Name: "parser.mb_per_s", Unit: "MB/s", Better: higher},
		{Name: "types.check_ms", Unit: "ms", Better: lower},
		{Name: "irbuild.lower_ms", Unit: "ms", Better: lower},
		{Name: "irbuild.ir_values", Unit: "count", Better: lower},

		{Name: "core.run_ms", Unit: "ms", Better: lower},
		{Name: "core.pass_skip_rate", Unit: "ratio", Better: higher},
		{Name: "core.pass_runs", Unit: "count", Better: lower},
		{Name: "core.pass_skips", Unit: "count", Better: higher},
		{Name: "core.fp_mismatch", Unit: "count", Better: lower},
		{Name: "core.not_dormant", Unit: "count", Better: lower},

		{Name: "passes.run_ms", Unit: "ms", Better: lower},
		{Name: "passes.saved_ms", Unit: "ms", Better: higher},
		{Name: "passes.ir_values_out", Unit: "count", Better: lower},
	}
	seen := map[string]bool{}
	for _, p := range passes.StandardPipeline {
		if !seen[p] {
			seen[p] = true
			defs = append(defs, metricDef{Name: "passes." + p + "_ms", Unit: "ms", Better: lower})
		}
	}
	return append(defs,
		metricDef{Name: "fingerprint.hash_ms", Unit: "ms", Better: lower},
		metricDef{Name: "fingerprint.hashes", Unit: "count", Better: lower},
		metricDef{Name: "fingerprint.memo_hit_rate", Unit: "ratio", Better: higher},
		metricDef{Name: "fingerprint.fn_ns", Unit: "ns", Better: lower},

		metricDef{Name: "state.load_ms", Unit: "ms", Better: lower},
		metricDef{Name: "state.loads", Unit: "count", Better: lower},
		metricDef{Name: "state.decode_mb_per_s", Unit: "MB/s", Better: higher},
		metricDef{Name: "state.save_ms", Unit: "ms", Better: lower},
		metricDef{Name: "state.saves", Unit: "count", Better: lower},
		metricDef{Name: "state.encode_mb_per_s", Unit: "MB/s", Better: higher},
		metricDef{Name: "state.bytes_per_unit", Unit: "B", Better: lower},

		metricDef{Name: "codegen.compile_ms", Unit: "ms", Better: lower},
		metricDef{Name: "codegen.link_ms", Unit: "ms", Better: lower},
		metricDef{Name: "codegen.code_instrs", Unit: "count", Better: lower},
		metricDef{Name: "vm.run_ms", Unit: "ms", Better: lower},

		metricDef{Name: "cas.fetch_ms", Unit: "ms", Better: lower},
		metricDef{Name: "cas.fetch_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "cas.fetches", Unit: "count", Better: lower},
		metricDef{Name: "cas.hit_rate", Unit: "ratio", Better: higher},
		metricDef{Name: "cas.verify_failed", Unit: "count", Better: lower},
		metricDef{Name: "cas.partitioned_overhead_ms", Unit: "ms", Better: lower},
		metricDef{Name: "cas.breaker_trips", Unit: "count", Better: lower},

		metricDef{Name: "buildsys.build_ms", Unit: "ms", Better: lower},
		metricDef{Name: "buildsys.lanes", Unit: "count", Better: higher},
		metricDef{Name: "buildsys.self_ms", Unit: "ms", Better: lower},
		metricDef{Name: "buildsys.unaccounted_pct", Unit: "%", Better: lower},
		metricDef{Name: "buildsys.units_compiled", Unit: "count", Better: lower},
		metricDef{Name: "buildsys.units_cached", Unit: "count", Better: higher},
		metricDef{Name: "buildsys.units_remote", Unit: "count", Better: higher},
		metricDef{Name: "buildsys.worker_utilization", Unit: "ratio", Better: higher},
		metricDef{Name: "buildsys.alloc_mb", Unit: "MB", Better: lower},
		metricDef{Name: "buildsys.cold_build_ms", Unit: "ms", Better: lower},

		metricDef{Name: "footprint.overhead_ms", Unit: "ms", Better: lower},
		metricDef{Name: "obs.trace_overhead_ms", Unit: "ms", Better: lower},
		metricDef{Name: "compiler.stateless_build_ms_p50", Unit: "ms", Better: lower},
		metricDef{Name: "compiler.stateful_speedup_pct", Unit: "%", Better: higher},
		metricDef{Name: "compiler.aa_noise_pct", Unit: "%", Better: lower},

		metricDef{Name: "machine.speed", Unit: "ratio", Better: higher},
	)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; empty gives 0).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var total float64
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so a
// spread computed here reads the same as one computed by a driver in
// Python. Fewer than two values have no spread.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(3) - cut(1)
}

// value is one reported metric: the median over rounds, with the spread of
// the per-round values beside it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// IQR is the interquartile range of the per-round values, N how many
	// rounds there were; Samples is the number of builds behind a
	// percentile. All zero for a metric measured once.
	IQR     float64 `json:"iqr,omitempty"`
	N       int     `json:"n,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// workloadReport is one workload's results in a full report. Uncalibrated
// holds what the clock read behind the end-to-end timings
// (raw_build_ms_p50, raw_cpu_ms_per_build) and the machine_speed they were
// multiplied by, build by build; -compare does not read it.
type workloadReport struct {
	Rounds       int              `json:"rounds"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	EndToEnd     map[string]value `json:"end_to_end"`
	Uncalibrated map[string]value `json:"uncalibrated"`
	PerLayer     map[string]value `json:"per_layer,omitempty"`
}

// report is the file a full run writes (-out) and -compare reads.
type report struct {
	Meta      map[string]any            `json:"meta"`
	Workloads map[string]workloadReport `json:"workloads"`
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of a comparison.
const (
	verdictPass       = "pass"
	verdictRegress    = "regress"
	verdictUnresolved = "unresolved"
)

// compare holds report b to baseline a: one row per (workload, end-to-end
// metric). A metric whose per-round spread on either side is wider than its
// bound is unresolved, not unchanged; otherwise it regresses when b's median
// is worse than a's by more than the bound. With equal seeds the exact
// metrics must also agree to the digit, and a failed build on either side
// is a regression of its workload. It returns the worst verdict.
func compare(w io.Writer, a, b *report) string {
	sameSeed := fmt.Sprint(a.Meta["seed"]) == fmt.Sprint(b.Meta["seed"])
	worst := verdictPass
	note := func(v string) {
		if v == verdictRegress || (v == verdictUnresolved && worst == verdictPass) {
			worst = v
		}
	}
	fmt.Fprintf(w, "%-14s %-17s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "baseline", "candidate", "worse%", "spread%", "bound%", "verdict")
	for _, sp := range specs {
		wa, wb := a.Workloads[sp.Name], b.Workloads[sp.Name]
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s failed builds: baseline %d of %d, candidate %d of %d  %s\n",
				sp.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, verdictRegress)
			note(verdictRegress)
		}
		for _, m := range endToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || va.Value == 0 {
				fmt.Fprintf(w, "%-14s %-17s missing  %s\n", sp.Name, m.Name, verdictRegress)
				note(verdictRegress)
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == higher {
				worse = -worse
			}
			spread := math.Max(va.IQR, vb.IQR) / va.Value
			verdict := verdictPass
			tol, isExact := exact[m.Name]
			switch {
			case sameSeed && isExact && math.Abs(worse) > tol:
				verdict = verdictRegress
			case spread > m.Bound:
				verdict = verdictUnresolved
			case worse > m.Bound:
				verdict = verdictRegress
			}
			note(verdict)
			fmt.Fprintf(w, "%-14s %-17s %12.4f %12.4f %+8.2f %8.2f %6.1f  %s\n",
				sp.Name, m.Name, va.Value, vb.Value, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	return worst
}

// printReport lists every metric of every workload by name with its unit.
func printReport(w io.Writer, r *report) {
	for _, sp := range specs {
		wr := r.Workloads[sp.Name]
		fmt.Fprintf(w, "\n%s: %d rounds, %d builds, %d failed\n", sp.Name, wr.Rounds, wr.Attempted, wr.Failed)
		for _, table := range []struct {
			defs []metricDef
			vals map[string]value
		}{{endToEnd, wr.EndToEnd}, {uncalibrated, wr.Uncalibrated}, {perLayer, wr.PerLayer}} {
			for _, m := range table.defs {
				v, ok := table.vals[m.Name]
				if !ok {
					continue
				}
				extra := ""
				if v.N > 1 {
					extra = fmt.Sprintf("  (iqr %.4g over %d rounds)", v.IQR, v.N)
				}
				if v.Samples > 0 {
					extra += fmt.Sprintf("  n=%d", v.Samples)
				}
				fmt.Fprintf(w, "  %-34s %14.4f %-8s%s\n", m.Name, v.Value, v.Unit, extra)
			}
		}
		if pct := wr.PerLayer["buildsys.unaccounted_pct"].Value; math.Abs(pct) > 15 {
			fmt.Fprintf(w, "  ! layer budget: %.1f%% of Build wall is outside the covered spans\n", pct)
		}
	}
}

package obs

// Prometheus text-format exporter for a counters snapshot, used by the
// `minibuild serve` /metrics endpoint. Every registry counter is monotonic,
// so everything exports as a prometheus counter; names are the registry
// names with dots replaced by underscores under a "statefulcc_" prefix
// (e.g. pass.runs → statefulcc_pass_runs). Output is sorted by name so two
// exports of the same snapshot are byte-identical.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PromPrefix is the metric-name namespace of every exported counter.
const PromPrefix = "statefulcc_"

// PromName maps a registry counter name to its Prometheus metric name.
func PromName(name string) string {
	var sb strings.Builder
	sb.WriteString(PromPrefix)
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// FormatProm renders a counters snapshot as Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers plus one sample per counter,
// sorted by registry name. The values reconcile exactly with the snapshot.
func FormatProm(snap map[string]int64) string {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		pn := PromName(name)
		fmt.Fprintf(&sb, "# HELP %s statefulcc obs registry counter %q (see docs/OBSERVABILITY.md).\n", pn, name)
		fmt.Fprintf(&sb, "# TYPE %s counter\n", pn)
		fmt.Fprintf(&sb, "%s %d\n", pn, snap[name])
	}
	return sb.String()
}

// FormatPromHist renders histogram snapshots as Prometheus text exposition
// histograms: cumulative `_bucket{le="..."}` samples (le in nanoseconds,
// ending at `+Inf`), `_sum`, and `_count`, sorted by registry name — two
// exports of the same snapshots are byte-identical. Appended after
// FormatProm's counters by the `minibuild serve` /metrics endpoint.
func FormatPromHist(hists map[string]HistogramSnapshot) string {
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		h := hists[name]
		pn := PromName(name)
		fmt.Fprintf(&sb, "# HELP %s statefulcc obs registry histogram %q in nanoseconds (see docs/OBSERVABILITY.md).\n", pn, name)
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", pn)
		var cum int64
		for i, c := range h.Buckets {
			cum += c
			if i < HistBuckets {
				fmt.Fprintf(&sb, "%s_bucket{le=\"%d\"} %d\n", pn, BucketBound(i), cum)
			} else {
				fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
			}
		}
		fmt.Fprintf(&sb, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(&sb, "%s_count %d\n", pn, h.Count)
	}
	return sb.String()
}

// ParsePromHist parses FormatPromHist-style text back into histogram
// snapshots keyed by Prometheus metric name (cumulative buckets are
// undone, so ParsePromHist(FormatPromHist(h)) round-trips the per-bucket
// counts). Non-histogram lines are ignored.
func ParsePromHist(s string) map[string]HistogramSnapshot {
	type acc struct {
		cum        []int64
		inf        int64
		sum, count int64
	}
	accs := make(map[string]*acc)
	get := func(name string) *acc {
		a, ok := accs[name]
		if !ok {
			a = &acc{}
			accs[name] = a
		}
		return a
	}
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.Contains(key, "_bucket{le="):
			name, rest, _ := strings.Cut(key, "_bucket{le=\"")
			le := strings.TrimSuffix(rest, "\"}")
			a := get(name)
			if le == "+Inf" {
				a.inf = v
			} else {
				a.cum = append(a.cum, v)
			}
		case strings.HasSuffix(key, "_sum"):
			get(strings.TrimSuffix(key, "_sum")).sum = v
		case strings.HasSuffix(key, "_count"):
			get(strings.TrimSuffix(key, "_count")).count = v
		}
	}
	out := make(map[string]HistogramSnapshot, len(accs))
	for name, a := range accs {
		if len(a.cum) == 0 && a.count == 0 && a.sum == 0 {
			continue
		}
		buckets := make([]int64, len(a.cum)+1)
		var prev int64
		for i, c := range a.cum {
			buckets[i] = c - prev
			prev = c
		}
		buckets[len(a.cum)] = a.inf - prev
		out[name] = HistogramSnapshot{Buckets: buckets, Sum: a.sum, Count: a.count}
	}
	return out
}

// ParseProm parses FormatProm-style text back into metric-name → value
// (comments and malformed lines are ignored). Used by tests and the CI
// smoke check to reconcile /metrics output against a registry snapshot.
func ParseProm(s string) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

package obs

// The machine-readable metrics block: a stable, sorted, line-oriented
// rendering of a counters snapshot, fenced so log scrapers can cut it out
// of surrounding CLI output. Derived-rate helpers live here too so every
// consumer computes them the same way.

import (
	"fmt"
	"sort"
	"strings"
)

// Metrics block fence markers.
const (
	MetricsHeader = "== metrics =="
	MetricsFooter = "== end metrics =="
)

// FormatMetrics renders a counters snapshot as the fenced metrics block:
// one "name<TAB>value" line per counter, sorted by name.
func FormatMetrics(snap map[string]int64) string {
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString(MetricsHeader + "\n")
	for _, name := range names {
		fmt.Fprintf(&sb, "%s\t%d\n", name, snap[name])
	}
	sb.WriteString(MetricsFooter + "\n")
	return sb.String()
}

// ParseMetrics parses a FormatMetrics block back into a snapshot (used by
// tests and scrapers); text outside the fence is ignored.
func ParseMetrics(s string) map[string]int64 {
	out := make(map[string]int64)
	in := false
	for _, line := range strings.Split(s, "\n") {
		switch strings.TrimSpace(line) {
		case MetricsHeader:
			in = true
			continue
		case MetricsFooter:
			in = false
			continue
		}
		if !in {
			continue
		}
		name, val, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(val, "%d", &v); err == nil {
			out[name] = v
		}
	}
	return out
}

// SkipRate returns the fraction of pass executions avoided by dormancy
// records: skipped / (runs + skipped). Zero when nothing ran.
func SkipRate(snap map[string]int64) float64 {
	runs, skipped := snap[CtrPassRuns], snap[CtrPassSkipped]
	if runs+skipped == 0 {
		return 0
	}
	return float64(skipped) / float64(runs+skipped)
}

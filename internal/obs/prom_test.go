package obs

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// registrySnapshot exercises real counters so the test covers the same
// path serve's /metrics uses: Registry → Snapshot → FormatProm.
func registrySnapshot() (*Registry, map[string]int64) {
	reg := NewRegistry()
	pc := reg.Pass()
	pc.Runs.Add(7)
	pc.Skipped.Add(3)
	pc.DecCold.Add(4)
	pc.DecNotDormant.Add(2)
	pc.DecFPMismatch.Add(1)
	reg.Counter(CtrBuilds).Add(1)
	return reg, reg.Snapshot()
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"pass.runs":                     "statefulcc_pass_runs",
		"decision.fingerprint_mismatch": "statefulcc_decision_fingerprint_mismatch",
		"state.bytes-written":           "statefulcc_state_bytes_written",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestFormatPromDeterministic: two snapshots of the same registry render
// byte-identically (satellite: deterministically ordered exports).
func TestFormatPromDeterministic(t *testing.T) {
	reg, _ := registrySnapshot()
	a := FormatProm(reg.Snapshot())
	b := FormatProm(reg.Snapshot())
	if a != b {
		t.Errorf("two renders of the same registry differ:\n%s\n---\n%s", a, b)
	}
	// Ordering must be sorted, not map order: check a known pair.
	if strings.Index(a, "statefulcc_build_count") > strings.Index(a, "statefulcc_pass_runs") {
		t.Errorf("samples not sorted:\n%s", a)
	}
}

// TestPromRoundTrip: ParseProm(FormatProm(snap)) reconstructs the snapshot
// exactly — the reconciliation contract behind serve's /metrics endpoint.
func TestPromRoundTrip(t *testing.T) {
	_, snap := registrySnapshot()
	parsed := ParseProm(FormatProm(snap))
	if len(parsed) != len(snap) {
		t.Fatalf("round trip lost counters: %d -> %d", len(snap), len(parsed))
	}
	for name, v := range snap {
		if got := parsed[PromName(name)]; got != v {
			t.Errorf("%s: %d != %d after round trip", name, got, v)
		}
	}
}

// TestPromFormatShape: every counter emits HELP, TYPE counter, and a sample
// line — the minimum for Prometheus text exposition format 0.0.4.
func TestPromFormatShape(t *testing.T) {
	_, snap := registrySnapshot()
	out := FormatProm(snap)
	var samples int
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			if !strings.Contains(line, PromPrefix) {
				t.Errorf("metadata line without prefix: %q", line)
			}
			if strings.HasPrefix(line, "# TYPE ") && !strings.HasSuffix(line, " counter") {
				t.Errorf("non-counter TYPE line: %q", line)
			}
		default:
			samples++
			if !strings.HasPrefix(line, PromPrefix) {
				t.Errorf("sample line without prefix: %q", line)
			}
		}
	}
	if samples != len(snap) {
		t.Errorf("%d sample lines for %d counters", samples, len(snap))
	}
}

// TestFormatMetricsDeterministic: the -metrics block is byte-stable across
// snapshots of the same registry, and survives a parse round trip.
func TestFormatMetricsDeterministic(t *testing.T) {
	reg, snap := registrySnapshot()
	a := FormatMetrics(reg.Snapshot())
	b := FormatMetrics(reg.Snapshot())
	if a != b {
		t.Errorf("two -metrics renders differ:\n%s\n---\n%s", a, b)
	}
	parsed := ParseMetrics(a)
	for name, v := range snap {
		if parsed[name] != v {
			t.Errorf("%s: %d != %d after -metrics round trip", name, parsed[name], v)
		}
	}
}

// TestCLIExportFlags: the shared flag bundle wires -trace/-metrics the same
// way for any FlagSet (satellite: dedupe minicc/minibuild wiring).
func TestCLIExportFlags(t *testing.T) {
	var ex CLIExport
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	ex.Register(fs)
	if err := fs.Parse([]string{"-metrics"}); err != nil {
		t.Fatal(err)
	}
	if !ex.Metrics {
		t.Error("-metrics flag not wired")
	}
	if ex.Tracer() != nil {
		t.Error("tracer created without -trace")
	}

	var sb, notes strings.Builder
	_, snap := registrySnapshot()
	if err := ex.Export(&sb, &notes, snap); err != nil {
		t.Fatal(err)
	}
	if parsed := ParseMetrics(sb.String()); parsed[CtrPassRuns] != snap[CtrPassRuns] {
		t.Errorf("exported metrics diverge: %v vs %v", parsed, snap)
	}
	if notes.Len() != 0 {
		t.Errorf("unexpected note output without -trace: %q", notes.String())
	}
}

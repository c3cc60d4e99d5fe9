package bench_test

import (
	"fmt"
	"strings"
	"testing"

	"statefulcc/internal/bench"
	"statefulcc/internal/compiler"
	"statefulcc/internal/workload"
)

// tinySuite keeps unit-test runtime low; the real experiments use the
// standard suite via bench_test.go at the repo root and cmd/experiments.
func tinySuite() []workload.Profile {
	s := workload.StandardSuite()
	return s[:2]
}

func tinyConfig() bench.Config {
	return bench.Config{Commits: 4}
}

func TestRunHistoryShapes(t *testing.T) {
	run, err := bench.RunHistory(tinySuite()[0], compiler.ModeStateful, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run.Cold.UnitsCompiled == 0 {
		t.Error("cold build compiled nothing")
	}
	if len(run.Incremental) != 4 {
		t.Errorf("incremental builds = %d, want 4", len(run.Incremental))
	}
	for i, s := range run.Incremental {
		if s.UnitsCompiled+s.UnitsCached != run.Cold.UnitsCompiled {
			t.Errorf("build %d: unit accounting broken: %d+%d != %d",
				i, s.UnitsCompiled, s.UnitsCached, run.Cold.UnitsCompiled)
		}
	}
	if run.MeanIncrementalNS() <= 0 {
		t.Error("mean incremental time not positive")
	}
}

func TestTable1(t *testing.T) {
	tab, err := bench.Table1Characteristics(tinySuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if !strings.Contains(tab.String(), "functions") {
		t.Error("table render missing columns")
	}
	if md := tab.Markdown(); !strings.Contains(md, "| project |") {
		t.Errorf("markdown render broken:\n%s", md)
	}
}

func TestFigure1DormantFraction(t *testing.T) {
	tab, err := bench.Figure1DormantFraction(tinySuite(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		// Dormant fractions are percentages; sanity: above 30% (the paper's
		// motivation requires substantial dormancy) and at most 100%.
		for _, cell := range row[1:] {
			v := parsePct(t, cell)
			if v < 30 || v > 100 {
				t.Errorf("%s: implausible dormant fraction %s", row[0], cell)
			}
		}
	}
}

func TestFigure2Persistence(t *testing.T) {
	tab, err := bench.Figure2DormancyPersistence(tinySuite(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[1] == "n/a" {
			continue
		}
		if v := parsePct(t, row[1]); v < 50 {
			t.Errorf("%s: dormancy persistence %s too low to motivate the design", row[0], row[1])
		}
	}
}

func TestTable2EndToEnd(t *testing.T) {
	tab, err := bench.Table2EndToEnd(tinySuite(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // two projects + MEAN
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	if tab.Rows[len(tab.Rows)-1][0] != "MEAN" {
		t.Error("missing MEAN row")
	}
}

func TestTable4Correctness(t *testing.T) {
	tab, err := bench.Table4Correctness(tinySuite(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			parts := strings.Split(cell, "/")
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Errorf("%s: output equivalence failed: %s", row[0], cell)
			}
		}
	}
}

func TestTable3StateOverhead(t *testing.T) {
	tab, err := bench.Table3StateOverhead(tinySuite(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		// fullcache state must dwarf dormancy state: ratio column like "12.3x".
		ratio := strings.TrimSuffix(row[len(row)-1], "x")
		var v float64
		if _, err := sscanFloat(ratio, &v); err != nil {
			t.Fatalf("%s: bad ratio cell %q", row[0], row[len(row)-1])
		}
		if v < 2 {
			t.Errorf("%s: fullcache/state ratio %.1f — expected the dormancy state to be much smaller", row[0], v)
		}
	}
}

func TestFigure5PerPass(t *testing.T) {
	tab, err := bench.Figure5PerPassSavings(tinySuite(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no per-pass rows")
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[0]] = true
	}
	if !seen["mem2reg"] || !seen["gvn"] {
		t.Errorf("expected pipeline passes in rows, got %v", seen)
	}
}

func TestFigure3And4RunClean(t *testing.T) {
	if _, err := bench.Figure3PerFileCDF(tinySuite()[:1], tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.Figure4EditSize(tinySuite()[0], bench.Config{Commits: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestTable5RunsClean(t *testing.T) {
	tab, err := bench.Table5VsFullCache(tinySuite()[:1], tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 6 {
		t.Errorf("unexpected shape: %+v", tab.Rows)
	}
}

func TestTable6PipelineLength(t *testing.T) {
	tab, err := bench.Table6PipelineLength(tinySuite()[0], bench.Config{Commits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 pipeline variants", len(tab.Rows))
	}
}

func TestFigure7Parallelism(t *testing.T) {
	tab, err := bench.Figure7Parallelism(tinySuite()[0], bench.Config{Commits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 worker counts", len(tab.Rows))
	}
	if err := bench.VerifyParallelBehaviour(workload.Generate(tinySuite()[0])); err != nil {
		t.Fatal(err)
	}
}

// --- helpers ---------------------------------------------------------------

func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := sscanFloat(strings.TrimSuffix(cell, "%"), &v); err != nil {
		t.Fatalf("bad percentage cell %q", cell)
	}
	return v
}

func sscanFloat(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

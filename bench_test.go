// Benchmark harness entry points: one testing.B per table and figure of
// the reproduced evaluation (see DESIGN.md §5 and EXPERIMENTS.md), plus
// micro-benchmarks for the stateful machinery itself.
//
// The table/figure benchmarks execute the corresponding experiment once per
// b.N over a reduced suite so `go test -bench=.` stays fast; the full-suite
// numbers in EXPERIMENTS.md come from `go run ./cmd/experiments`.
package statefulcc_test

import (
	"bytes"
	"fmt"
	"testing"

	"statefulcc"
	"statefulcc/internal/bench"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/state"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

func benchSuite() []workload.Profile { return workload.StandardSuite()[:3] }

func benchConfig() bench.Config { return bench.Config{Commits: 8} }

func reportTable(b *testing.B, tab *bench.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if testing.Verbose() {
		b.Log("\n" + tab.String())
	}
}

// BenchmarkTable1Characteristics regenerates Table 1 (project shapes).
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table1Characteristics(benchSuite())
		reportTable(b, tab, err)
	}
}

// BenchmarkFigure1DormantFraction regenerates the motivation figure.
func BenchmarkFigure1DormantFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure1DormantFraction(benchSuite(), benchConfig())
		reportTable(b, tab, err)
	}
}

// BenchmarkFigure2DormancyPersistence regenerates the persistence figure.
func BenchmarkFigure2DormancyPersistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure2DormancyPersistence(benchSuite(), benchConfig())
		reportTable(b, tab, err)
	}
}

// BenchmarkTable2EndToEnd regenerates the headline end-to-end comparison
// and reports the mean speedup as a custom metric.
func BenchmarkTable2EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table2EndToEnd(benchSuite(), benchConfig())
		reportTable(b, tab, err)
		if err == nil && len(tab.Rows) > 0 {
			var v float64
			mean := tab.Rows[len(tab.Rows)-1][3]
			if _, err := sscan(mean, &v); err == nil {
				b.ReportMetric(v, "mean-speedup-%")
			}
		}
	}
}

// BenchmarkFigure3PerFileCDF regenerates the per-file speedup distribution.
func BenchmarkFigure3PerFileCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure3PerFileCDF(benchSuite(), benchConfig())
		reportTable(b, tab, err)
	}
}

// BenchmarkFigure4EditSize regenerates the edit-size sensitivity sweep.
func BenchmarkFigure4EditSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure4EditSize(benchSuite()[1], bench.Config{Commits: 5})
		reportTable(b, tab, err)
	}
}

// BenchmarkTable3StateOverhead regenerates the state-size table.
func BenchmarkTable3StateOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table3StateOverhead(benchSuite(), benchConfig())
		reportTable(b, tab, err)
	}
}

// BenchmarkTable4Correctness regenerates the output-equivalence table.
func BenchmarkTable4Correctness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table4Correctness(benchSuite()[:2], bench.Config{Commits: 5})
		reportTable(b, tab, err)
	}
}

// BenchmarkFigure5PerPassSavings regenerates the per-pass skipping profile.
func BenchmarkFigure5PerPassSavings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure5PerPassSavings(benchSuite(), benchConfig())
		reportTable(b, tab, err)
	}
}

// BenchmarkTable5VsFullCache regenerates the full-IR-cache comparison.
func BenchmarkTable5VsFullCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table5VsFullCache(benchSuite(), benchConfig())
		reportTable(b, tab, err)
	}
}

// BenchmarkFigure7Parallelism regenerates the parallel-build extension.
func BenchmarkFigure7Parallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Figure7Parallelism(benchSuite()[0], bench.Config{Commits: 3})
		reportTable(b, tab, err)
	}
}

// BenchmarkTable6PipelineLength regenerates the pipeline-length extension.
func BenchmarkTable6PipelineLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table6PipelineLength(benchSuite()[0], bench.Config{Commits: 3})
		reportTable(b, tab, err)
	}
}

// --- micro-benchmarks of the stateful machinery -----------------------------

// benchModule compiles one generated unit to IR for hashing benches.
func benchUnit(b *testing.B) (string, []byte) {
	b.Helper()
	snap := workload.Generate(benchSuite()[1])
	unit := snap.Units()[0]
	return unit, snap[unit]
}

// BenchmarkFingerprintFunction measures the hot-path hash.
func BenchmarkFingerprintFunction(b *testing.B) {
	unit, src := benchUnit(b)
	m, err := compiler.Frontend(unit, src)
	if err != nil {
		b.Fatal(err)
	}
	f := m.Funcs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint.Function(f)
	}
}

// BenchmarkCompileStateless measures a full single-unit compile.
func BenchmarkCompileStateless(b *testing.B) {
	unit, src := benchUnit(b)
	c, err := statefulcc.NewCompiler(statefulcc.CompilerOptions{Mode: statefulcc.Stateless})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileUnit(unit, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileStatefulWarm measures the same compile with warm
// dormancy records — the per-file win the end-to-end number dilutes.
func BenchmarkCompileStatefulWarm(b *testing.B) {
	unit, src := benchUnit(b)
	c, err := statefulcc.NewCompiler(statefulcc.CompilerOptions{Mode: statefulcc.Stateful})
	if err != nil {
		b.Fatal(err)
	}
	var st *core.UnitState
	res, err := c.CompileUnit(unit, src, st)
	if err != nil {
		b.Fatal(err)
	}
	st = res.State
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.CompileUnit(unit, src, st)
		if err != nil {
			b.Fatal(err)
		}
		st = res.State
	}
}

// BenchmarkStateEncodeDecode measures state-store serialization.
func BenchmarkStateEncodeDecode(b *testing.B) {
	unit, src := benchUnit(b)
	c, err := statefulcc.NewCompiler(statefulcc.CompilerOptions{Mode: statefulcc.Stateful})
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.CompileUnit(unit, src, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := state.Encode(&buf, res.State); err != nil {
			b.Fatal(err)
		}
		if _, err := state.Decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkVMExecution measures the execution substrate.
func BenchmarkVMExecution(b *testing.B) {
	prog, err := statefulcc.CompileAndLink(map[string][]byte{"main.mc": []byte(`
func fib(n int) int {
    if n < 2 { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() int { return fib(18); }`)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(prog, vm.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	t := s
	if len(t) > 0 && t[len(t)-1] == '%' {
		t = t[:len(t)-1]
	}
	return fmt.Sscan(t, v)
}

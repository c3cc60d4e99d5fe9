package compiler

import (
	"runtime"
	"sort"
	"testing"

	"statefulcc/internal/ast"
	"statefulcc/internal/parser"
	"statefulcc/internal/source"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// BenchmarkFrontendMega runs lex, parse, check and lower over every unit of
// the megarepo profile on one worker's frontend scratch — the frontend half
// of the benchmark of record's fresh_process workload, without the passes
// and the build system around it. One op is the whole project; ms/unit,
// KB/unit and allocs/unit divide by its 208 units.
func BenchmarkFrontendMega(b *testing.B) {
	snap := workload.Generate(workload.MegaProfile())
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)

	var fe frontend
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := fe.build(name, snap[name]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	units := float64(b.N * len(names))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/units/1e6, "ms/unit")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/units/1024, "KB/unit")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/units, "allocs/unit")
}

// TestFrontendAllocs holds lex, parse, check and lower of one unit to the
// allocations its output needs once the worker's scratch is warm: one per
// AST node (and per name, per complete list), and for its IR none per
// value: the values, blocks and lists are cut from the chunks the worker's
// IR arena took back after the unit before. Nothing may be paid per token,
// per checked expression or per IR value: a token slice, a map keyed by
// node, a scope object, a heap-allocated operand list or a slab chunk
// creeping back costs hundreds of allocations on this input and fails the
// bound. Before the frontend scratch, dense tables and slabs this input (187
// AST nodes, 153 IR values in work) took 783 allocations, before the arena
// 280; it takes 270.
func TestFrontendAllocs(t *testing.T) {
	const runs = 20
	src := []byte(testutil.AllocSrc)
	var errs source.ErrorList
	tree := parser.ParseFile(source.NewFile("alloc.mc", src), &errs)
	if errs.HasErrors() {
		t.Fatal(&errs)
	}
	nodes := 0
	ast.Inspect(tree, func(ast.Node) bool { nodes++; return true })

	var fe frontend
	m, err := fe.build("alloc.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	values := m.FindFunc("work").NumValues()
	if values < 150 || values > 400 {
		t.Fatalf("work has %d values; the bound below was set for about 200", values)
	}
	got := testing.AllocsPerRun(runs, func() {
		if _, err := fe.build("alloc.mc", src); err != nil {
			t.Fatal(err)
		}
	})
	limit := float64(nodes + nodes/2 + 16)
	t.Logf("%d AST nodes, %d values in work: %.0f allocs/run (limit %.0f)", nodes, values, got, limit)
	if got > limit {
		t.Errorf("%.0f allocations per unit on a warm scratch, limit %.0f", got, limit)
	}
}

package compiler

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
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
			if _, _, err := fe.build(name, snap[name], nil); err != nil {
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
// allocations its output needs once the worker's scratch is warm, which is
// a few per unit and none per token, name, AST node, symbol, checked
// expression or IR value: the AST and the lists between its nodes are cut
// from the chunks the worker's frontend arena took back after the unit
// before, names come from the worker's intern table, symbols and signatures
// from the checker's memory, and the IR from the chunks of the worker's IR
// arena. What is left on this input is 18: the source file, the diagnostic
// list and the lexer, the file node, the one array's node and type, and
// lowering's module, functions, global and verifier tables. A node, name or
// symbol allocated one by one again costs dozens on this input and fails
// the bound. Before the frontend scratch, dense tables and slabs this input
// (187 AST nodes, 153 IR values in work) took 783 allocations, before the
// IR arena 280, before the frontend arena 270.
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
	m, _, err := fe.build("alloc.mc", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	values := m.FindFunc("work").NumValues()
	if values < 150 || values > 400 {
		t.Fatalf("work has %d values; the bound below was set for about 200", values)
	}
	got := testing.AllocsPerRun(runs, func() {
		if _, _, err := fe.build("alloc.mc", src, nil); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 20
	t.Logf("%d AST nodes, %d values in work: %.0f allocs/run (limit %d)", nodes, values, got, limit)
	if got > limit {
		t.Errorf("%.0f allocations per unit on a warm scratch, limit %d", got, limit)
	}
}

// TestFrontendReleasesOnEveryPath: when a unit's lowering returns — or the
// unit stops at a syntax or type error first — the frontend arena it used
// is wiped: the AST chunks and node lists, the token buffer and list
// stacks, the checker's tables, scopes, symbols and signatures are zero
// through their capacity, so an idle worker pins none of the unit. Only
// the intern table keeps anything, and it keeps strings.
func TestFrontendReleasesOnEveryPath(t *testing.T) {
	for _, tc := range []struct{ name, src, err string }{
		{"compiles", testutil.AllocSrc, ""},
		{"type error", testutil.AllocSrc + "func bad() int { return missing; }\n", "undefined: missing"},
		{"syntax error", testutil.AllocSrc + "func cut(a int) int { return (a + ", "expected expression"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fe frontend
			_, _, err := fe.build("unit.mc", []byte(tc.src), nil)
			if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
				t.Fatalf("build: %v, want %q", err, tc.err)
			}
			zeroThroughCap(t, "parse", reflect.ValueOf(&fe.parse).Elem())
			zeroThroughCap(t, "check", reflect.ValueOf(&fe.check).Elem())
		})
	}
}

// zeroThroughCap reports, under path, any element of the slices in v (and
// in its structs and slices of slices) that is set up to its slice's
// capacity, any map that is not empty and any other field that is set.
// The intern table (a field named names) is skipped: its strings are
// meant to outlive the unit.
func zeroThroughCap(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name != "names" {
				zeroThroughCap(t, path+"."+name, v.Field(i))
			}
		}
	case reflect.Slice:
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			if e := full.Index(i); e.Kind() == reflect.Slice {
				zeroThroughCap(t, fmt.Sprintf("%s[%d]", path, i), e)
			} else if !e.IsZero() {
				t.Errorf("%s: element %d of %d is set", path, i, full.Len())
				return
			}
		}
	case reflect.Map:
		if v.Len() != 0 {
			t.Errorf("%s holds %d entries", path, v.Len())
		}
	default:
		if !v.IsZero() {
			t.Errorf("%s is %v", path, v)
		}
	}
}

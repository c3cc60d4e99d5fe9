package fingerprint_test

// Microbenchmarks for the three fingerprinting regimes the driver mixes: no
// memo, a cold memo (first sight of a function in a Run), and a warm memo
// (unchanged IR).
// `go test ./internal/fingerprint -bench . -cpuprofile cpu.pprof` is the
// profiling entry point for hot-path work.

import (
	"testing"

	"statefulcc/internal/compiler"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
	"statefulcc/internal/workload"
)

func benchModule(b *testing.B) *ir.Module {
	b.Helper()
	p := workload.StandardSuite()[0]
	snap := workload.Generate(p)
	unit := snap.Units()[0]
	m, err := compiler.Frontend(unit, snap[unit])
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkFunctionNoMemo(b *testing.B) {
	m := benchModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range m.Funcs {
			fingerprint.Function(f)
		}
	}
}

func BenchmarkColdMemo(b *testing.B) {
	m := benchModule(b)
	memo := fingerprint.NewMemo()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.Reset()
		for _, f := range m.Funcs {
			fingerprint.FunctionWith(f, memo)
		}
	}
}

func BenchmarkWarmMemo(b *testing.B) {
	m := benchModule(b)
	memo := fingerprint.NewMemo()
	for _, f := range m.Funcs {
		fingerprint.FunctionWith(f, memo)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range m.Funcs {
			fingerprint.FunctionWith(f, memo)
		}
	}
}

package fingerprint_test

// Microbenchmark for function fingerprinting, the hash every dormancy check
// takes. `go test ./internal/fingerprint -bench . -cpuprofile cpu.pprof` is
// the profiling entry point for hot-path work.

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

func BenchmarkFunction(b *testing.B) {
	m := benchModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range m.Funcs {
			fingerprint.Function(f)
		}
	}
}

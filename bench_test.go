// Micro-benchmarks of the stateful machinery: the fingerprint hash, a
// single-unit compile with and without warm dormancy records, state
// serialization and the VM. They are profiling aids (docs/PERFORMANCE.md);
// the end-to-end numbers in EXPERIMENTS.md come from `go run ./benchmark`.
package statefulcc_test

import (
	"bytes"
	"testing"

	"statefulcc"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/state"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// benchUnit returns the first unit of a generated standard-suite project.
func benchUnit(b *testing.B) (string, []byte) {
	b.Helper()
	snap := workload.Generate(workload.StandardSuite()[1])
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

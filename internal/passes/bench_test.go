package passes_test

import (
	"runtime"
	"sort"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// worker is the compile path of one build worker: one instance of every
// StandardPipeline pass and a code generator, all on the worker's scratch.
type worker struct {
	passes  []any
	scratch *passes.Scratch
	cg      codegen.Scratch
}

func newWorker(tb testing.TB) *worker {
	w := &worker{scratch: &passes.Scratch{}}
	scratch := w.scratch
	for _, name := range passes.StandardPipeline {
		info, ok := passes.Lookup(name)
		if !ok {
			tb.Fatalf("unknown pass %s", name)
		}
		inst := info.New()
		passes.UseScratch(inst, scratch)
		w.passes = append(w.passes, inst)
	}
	return w
}

// compile optimizes and lowers one module, as core.Driver and
// compiler.Compiler do: the functions deadfunc would delete leave the
// module before the first pass. It returns the object and how many
// functions were pruned.
func (w *worker) compile(tb testing.TB, m *ir.Module) (*codegen.Object, int) {
	defer w.scratch.Release()
	pruned := passes.PruneDeadFuncs(m)
	for _, p := range w.passes {
		if mp, ok := p.(passes.ModulePass); ok {
			mp.RunModule(m)
			continue
		}
		for _, f := range m.Funcs {
			p.(passes.FuncPass).Run(f)
		}
	}
	obj, err := w.cg.Compile(m)
	if err != nil {
		tb.Fatal(err)
	}
	return obj, pruned
}

// BenchmarkPipelineMega runs the standard pipeline and code generation over
// every unit of the megarepo profile on one worker — the compile path of
// the benchmark of record's fresh_process workload, without the build
// system around it. One op is the whole project; ns/unit, B/unit,
// allocs/unit and funcsPruned/unit divide by its 208 units. The frontend
// runs with the timer stopped (passes mutate IR, so every op needs fresh
// modules).
func BenchmarkPipelineMega(b *testing.B) {
	w := newWorker(b)
	snap := workload.Generate(workload.MegaProfile())
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)

	var before, after runtime.MemStats
	var bytes, mallocs uint64
	pruned := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mods := make([]*ir.Module, len(names))
		for j, name := range names {
			m, err := testutil.BuildModule(name, string(snap[name]))
			if err != nil {
				b.Fatal(err)
			}
			mods[j] = m
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, m := range mods {
			_, n := w.compile(b, m)
			pruned += n
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		b.StartTimer()
	}
	units := float64(b.N * len(names))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/units, "ns/unit")
	b.ReportMetric(float64(bytes)/units, "B/unit")
	b.ReportMetric(float64(mallocs)/units, "allocs/unit")
	b.ReportMetric(float64(pruned)/units, "funcsPruned/unit")
}

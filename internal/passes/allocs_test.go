package passes_test

import (
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/irbuild"
	"statefulcc/internal/parser"
	"statefulcc/internal/passes"
	"statefulcc/internal/source"
	"statefulcc/internal/testutil"
	"statefulcc/internal/types"
)

// TestPassAllocs holds the never-dormant floor of the compile path —
// mem2reg, sccp, gvn, dce and code generation — to a small number of heap
// allocations per function once the worker's scratch is warm, its IR arena
// included. The values a pass creates and their operand lists come off the
// arena's released chunks (ir/slab.go); what is left is a list that grows,
// so a pass may allocate once per value it creates (a block's phi list)
// plus a constant eight, and code generation its object. A pointer-keyed
// map, any table allocated per function, or IR taken from the heap instead
// of the slab creeping back into one of them costs tens of allocations on
// this input and fails the bound: before the dense side tables the five
// stages took 238, 167, 81, 15 and 315 allocations on it, before the arena
// 33, 0, 0, 0 and 15, and now 9, 0, 0, 0 and 15.
func TestPassAllocs(t *testing.T) {
	const runs = 20
	var errs source.ErrorList
	file := source.NewFile("alloc.mc", []byte(testutil.AllocSrc))
	tree := parser.ParseFile(file, &errs)
	info := types.Check(file, tree, &errs)
	if errs.HasErrors() {
		t.Fatal(&errs)
	}
	base, err := irbuild.Build("alloc.mc", tree, info)
	if err != nil {
		t.Fatal(err)
	}
	if n := base.FindFunc("work").NumValues(); n < 150 || n > 400 {
		t.Fatalf("work has %d values; the bounds below were set for about 200", n)
	}
	scratch := &passes.Scratch{}
	pass := func(name string) passes.FuncPass {
		p, err := passes.NewFuncPass(name)
		if err != nil {
			t.Fatal(err)
		}
		passes.UseScratch(p, scratch)
		return p
	}
	// lower lowers the unit on a worker's lowering scratch and runs stages
	// over work, as the pipeline would.
	lower := func(s *irbuild.Scratch, stages ...passes.FuncPass) *ir.Func {
		m, err := s.Build("alloc.mc", tree, info)
		if err != nil {
			t.Fatal(err)
		}
		f := m.FindFunc("work")
		for _, q := range stages {
			q.Run(f)
		}
		return f
	}
	// Each stage is measured on the IR the stages before it leave behind, as
	// in the pipeline. AllocsPerRun calls its function runs+1 times, so that
	// many inputs are made ahead of it and every call gets a fresh one, each
	// on an IR arena of its own that the same stages, the measured one
	// included, have been through once: what the stage cuts comes from
	// released chunks, as on a worker.
	prefix := []passes.FuncPass{}
	for _, name := range []string{"mem2reg", "sccp", "gvn", "dce"} {
		p := pass(name)
		inputs := make([]*ir.Func, runs+1)
		for i := range inputs {
			s := new(irbuild.Scratch)
			lower(s, append(prefix, p)...)
			inputs[i] = lower(s, prefix...)
		}
		before := inputs[0].NumValues()
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			p.Run(inputs[next])
			next++
		})
		limit := float64(inputs[0].NumValues() - before + 8)
		t.Logf("%s: %.0f allocs/run (limit %.0f)", name, got, limit)
		if got > limit {
			t.Errorf("%s: %.0f allocations per run on a warm scratch, limit %.0f", name, got, limit)
		}
		prefix = append(prefix, p)
	}

	m := ir.CloneModule(base)
	for _, f := range m.Funcs {
		for _, q := range prefix {
			q.Run(f)
		}
	}
	var cg codegen.Scratch
	const cgLimit = 20
	got := testing.AllocsPerRun(runs, func() {
		if _, err := cg.Compile(m); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("codegen: %.0f allocs/run (limit %d)", got, cgLimit)
	if got > cgLimit {
		t.Errorf("codegen: %.0f allocations per module on a warm scratch, limit %d", got, cgLimit)
	}
}

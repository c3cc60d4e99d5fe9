package passes_test

import (
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
)

// TestPassAllocs holds the never-dormant floor of the compile path —
// mem2reg, sccp, gvn, dce and code generation — to a small number of heap
// allocations per function once the worker's scratch is warm. What is left
// is output: a pass may allocate three times per value it creates (a phi is
// a Value, its operands and its incoming blocks) plus a constant eight, and
// code generation its object. A pointer-keyed map, or any table allocated
// per function, creeping back into one of them costs tens of allocations
// on this input and fails the bound: before the dense side tables the five
// stages took 238, 167, 81, 15 and 315 allocations on it, against 48, 2, 0,
// 0 and 12.
func TestPassAllocs(t *testing.T) {
	const runs = 20
	base, err := testutil.BuildModule("alloc.mc", testutil.AllocSrc)
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
	// Each stage is measured on the IR the stages before it leave behind, as
	// in the pipeline. AllocsPerRun calls its function runs+1 times, so that
	// many clones are made ahead of it and every call gets a fresh one.
	prefix := []passes.FuncPass{}
	for _, name := range []string{"mem2reg", "sccp", "gvn", "dce"} {
		p := pass(name)
		inputs := make([]*ir.Func, runs+1)
		for i := range inputs {
			f := ir.CloneModule(base).FindFunc("work")
			for _, q := range prefix {
				q.Run(f)
			}
			inputs[i] = f
		}
		before := inputs[0].NumValues()
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			p.Run(inputs[next])
			next++
		})
		limit := float64(3*(inputs[0].NumValues()-before) + 8)
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

// Package passes implements the optimization pipeline of the MiniC
// compiler: a pass framework plus the individual function- and module-level
// transformations (mem2reg, simplifycfg, instcombine, SCCP, GVN, LICM, loop
// unrolling, strength reduction, DSE, DCE, the inliner, globalopt, and dead
// function elimination).
//
// Two properties of this package are load-bearing for the stateful pass
// manager in internal/core:
//
//   - Every pass reports whether it changed the IR. A pass that ran but
//     reported false is *dormant* — the observation the paper's skipping
//     scheme is built on.
//
//   - Every pass is deterministic: the same input IR produces the same
//     output IR (no map-iteration-order dependence). Determinism is what
//     makes "same input fingerprint + dormant last time ⇒ dormant now" a
//     sound skipping rule, and it is enforced by tests.
package passes

import (
	"fmt"

	"statefulcc/internal/ir"
)

// FuncPass transforms one function at a time.
type FuncPass interface {
	// Name returns the pass's registry name.
	Name() string
	// Run applies the pass, reporting whether it modified the function.
	Run(f *ir.Func) bool
}

// ModulePass transforms a whole module.
type ModulePass interface {
	// Name returns the pass's registry name.
	Name() string
	// RunModule applies the pass, reporting whether it modified the module.
	RunModule(m *ir.Module) bool
}

// Info describes a registered pass.
type Info struct {
	// Name is the unique registry key.
	Name string
	// Description is a one-line summary.
	Description string
	// Module is true for module-level passes.
	Module bool
	// FunctionLocal is true when the pass's behaviour on a function depends
	// only on that function's IR (deterministic, no module state). Only
	// function-local passes are eligible for fingerprint-guarded skipping.
	FunctionLocal bool
	// New constructs a fresh pass instance.
	New func() any
}

// registry lists all passes in a fixed order (ordering matters only for
// help output; pipelines name passes explicitly).
var registry = []Info{
	{Name: "mem2reg", Description: "promote allocas to SSA registers", FunctionLocal: true,
		New: func() any { return &Mem2Reg{} }},
	{Name: "simplifycfg", Description: "merge blocks, fold constant branches, remove unreachable code", FunctionLocal: true,
		New: func() any { return &SimplifyCFG{} }},
	{Name: "instcombine", Description: "algebraic simplification and instruction-level constant folding", FunctionLocal: true,
		New: func() any { return &InstCombine{} }},
	{Name: "sccp", Description: "sparse conditional constant propagation", FunctionLocal: true,
		New: func() any { return &SCCP{} }},
	{Name: "gvn", Description: "dominator-scoped global value numbering and copy propagation", FunctionLocal: true,
		New: func() any { return &GVN{} }},
	{Name: "licm", Description: "loop-invariant code motion", FunctionLocal: true,
		New: func() any { return &LICM{} }},
	{Name: "unroll", Description: "full unrolling of small constant-trip loops", FunctionLocal: true,
		New: func() any { return &Unroll{} }},
	{Name: "strength", Description: "strength reduction of multiplications by constants", FunctionLocal: true,
		New: func() any { return &Strength{} }},
	{Name: "loadelim", Description: "block-local redundant load elimination and store-to-load forwarding", FunctionLocal: true,
		New: func() any { return &LoadElim{} }},
	{Name: "dse", Description: "dead store elimination on non-escaping allocas", FunctionLocal: true,
		New: func() any { return &DSE{} }},
	{Name: "dce", Description: "dead code elimination", FunctionLocal: true,
		New: func() any { return &DCE{} }},
	{Name: "inline", Description: "bottom-up function inlining", Module: true,
		New: func() any { return &Inline{} }},
	{Name: "globalopt", Description: "remove and constify unit-private globals", Module: true,
		New: func() any { return &GlobalOpt{} }},
	{Name: "deadfunc", Description: "remove uncalled unit-private functions", Module: true,
		New: func() any { return &DeadFunc{} }},
	{Name: "faulthook", Description: "fault-injection hook (no-op unless armed; adversity tests only)", FunctionLocal: true,
		New: func() any { return &FaultHook{} }},
}

// Registry returns descriptors for all passes.
func Registry() []Info {
	out := make([]Info, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds a pass descriptor by name.
func Lookup(name string) (Info, bool) {
	for _, in := range registry {
		if in.Name == name {
			return in, true
		}
	}
	return Info{}, false
}

// NewFuncPass instantiates a function pass by name.
func NewFuncPass(name string) (FuncPass, error) {
	in, ok := Lookup(name)
	if !ok || in.Module {
		return nil, fmt.Errorf("passes: no function pass %q", name)
	}
	return in.New().(FuncPass), nil
}

// NewModulePass instantiates a module pass by name.
func NewModulePass(name string) (ModulePass, error) {
	in, ok := Lookup(name)
	if !ok || !in.Module {
		return nil, fmt.Errorf("passes: no module pass %q", name)
	}
	return in.New().(ModulePass), nil
}

// StandardPipeline is the default -O2-style pipeline: a mix of cleanup,
// scalar optimization, loop optimization, and interprocedural passes. The
// repetition of cleanup passes after enabling transformations mirrors real
// pipelines (and creates the dormancy the stateful compiler exploits: most
// of these instances find nothing to do on most functions).
var StandardPipeline = []string{
	"mem2reg",
	"simplifycfg",
	"instcombine",
	"sccp",
	"simplifycfg",
	"dce",
	"inline",
	"instcombine",
	"gvn",
	"simplifycfg",
	"licm",
	"unroll",
	"instcombine",
	"sccp",
	"strength",
	"gvn",
	"loadelim",
	"dse",
	"dce",
	"simplifycfg",
	"globalopt",
	"deadfunc",
}

// QuickPipeline is the -O1-style pipeline used by fast builds and tests.
var QuickPipeline = []string{
	"mem2reg",
	"simplifycfg",
	"instcombine",
	"sccp",
	"dce",
	"simplifycfg",
}

// RunPipeline applies the named passes to a module sequentially (function
// passes run function-by-function), reporting whether anything changed.
// This is the *stateless* execution path — exactly what a conventional
// compiler does; the stateful driver lives in internal/core.
func RunPipeline(m *ir.Module, pipeline []string) (bool, error) {
	scratch := &Scratch{}
	changed := false
	for _, name := range pipeline {
		in, ok := Lookup(name)
		if !ok {
			return changed, fmt.Errorf("passes: unknown pass %q in pipeline", name)
		}
		inst := in.New()
		UseScratch(inst, scratch)
		if in.Module {
			if inst.(ModulePass).RunModule(m) {
				changed = true
			}
		} else {
			p := inst.(FuncPass)
			for _, f := range m.Funcs {
				if p.Run(f) {
					changed = true
				}
			}
		}
	}
	return changed, nil
}

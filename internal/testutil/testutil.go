// Package testutil provides shared helpers for the compiler's test suites:
// one-call paths from MiniC source text to checked ASTs, IR modules, linked
// programs, and executed results. Tests across packages use these to do
// differential testing (unoptimized vs optimized vs stateful builds).
package testutil

import (
	"fmt"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/irbuild"
	"statefulcc/internal/parser"
	"statefulcc/internal/passes"
	"statefulcc/internal/source"
	"statefulcc/internal/types"
	"statefulcc/internal/vm"
)

// BuildModule runs the frontend (parse, check, lower) on one unit.
func BuildModule(unit, src string) (*ir.Module, error) {
	var errs source.ErrorList
	file := source.NewFile(unit, []byte(src))
	tree := parser.ParseFile(file, &errs)
	if errs.HasErrors() {
		return nil, fmt.Errorf("parse: %w", &errs)
	}
	info := types.Check(file, tree, &errs)
	if errs.HasErrors() {
		return nil, fmt.Errorf("check: %w", &errs)
	}
	return irbuild.Build(unit, tree, info)
}

// CompileUnpruned is the reference compile of one unit that removes no
// function before the first pass: the frontend, passes.RunPipeline over the
// given pipeline (nil: the standard one) and codegen.Compile. The compiler's
// driver prunes the functions deadfunc would delete
// (passes.PruneDeadFuncs), so a test that holds a build to this
// reference holds the pruning to the output it must not change. The module
// is the post-pipeline IR and is the caller's.
func CompileUnpruned(unit, src string, pipeline []string) (*ir.Module, *codegen.Object, error) {
	if pipeline == nil {
		pipeline = passes.StandardPipeline
	}
	m, err := BuildModule(unit, src)
	if err != nil {
		return nil, nil, err
	}
	if _, err := passes.RunPipeline(m, pipeline); err != nil {
		return nil, nil, err
	}
	obj, err := codegen.Compile(m)
	if err != nil {
		return nil, nil, err
	}
	return m, obj, nil
}

// Transform is an optional IR transformation applied between lowering and
// codegen (tests plug pass pipelines in here).
type Transform func(*ir.Module) error

// LinkProgram builds, optionally transforms, compiles, and links the units.
// The map key is the unit name; iteration order does not matter because the
// linker sorts units.
func LinkProgram(units map[string]string, tf Transform) (*codegen.Program, error) {
	var objs []*codegen.Object
	for name, src := range units {
		m, err := BuildModule(name, src)
		if err != nil {
			return nil, fmt.Errorf("unit %s: %w", name, err)
		}
		if tf != nil {
			if err := tf(m); err != nil {
				return nil, fmt.Errorf("transform %s: %w", name, err)
			}
			if err := m.Verify(); err != nil {
				return nil, fmt.Errorf("transform %s broke IR: %w", name, err)
			}
		}
		obj, err := codegen.Compile(m)
		if err != nil {
			return nil, fmt.Errorf("codegen %s: %w", name, err)
		}
		objs = append(objs, obj)
	}
	return codegen.Link(objs)
}

// Run compiles and executes a set of units, returning the print output and
// main's return value.
func Run(units map[string]string, tf Transform) (string, int64, error) {
	p, err := LinkProgram(units, tf)
	if err != nil {
		return "", 0, err
	}
	out, res, err := vm.RunCapture(p, vm.Config{})
	if err != nil {
		return out, 0, err
	}
	return out, res.ExitValue, nil
}

// RunSource is Run for a single unit named main.mc.
func RunSource(src string, tf Transform) (string, int64, error) {
	return Run(map[string]string{"main.mc": src}, tf)
}

// AllocSrc lowers to one function of a couple of hundred IR values with
// everything the allocation guards (passes.TestPassAllocs,
// compiler.TestFrontendAllocs) look at: promotable locals in nested
// control flow (phis), foldable and redundant arithmetic, dead
// computations, a loop and an array.
const AllocSrc = `
var table [16]int;

func work(n int, seed int) int {
    var acc int = 0;
    var lo int = 3 * 4 + 1;
    var hi int = lo * 2;
    var dead int = n * 17 + seed;
    for var i int = 0; i < n; i++ {
        var t int = (seed + i) * (seed + i);
        var u int = (seed + i) * (seed + i) + lo;
        if t > hi {
            acc = acc + t - u;
            if i % 2 == 0 { acc = acc + lo; } else { acc = acc - hi; }
        } else {
            acc = acc + u * 2;
            table[i % 16] = acc;
        }
        var k int = 0;
        while k < 3 {
            acc = acc + table[(i + k) % 16] * (lo + hi);
            k++;
        }
        seed = (seed * 31 + 7) % 1009;
        dead = dead + t;
    }
    if acc < 0 { acc = -acc; }
    return acc + lo + hi;
}

func main() int { return work(10, 5); }
`

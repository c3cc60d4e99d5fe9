// Package testutil provides shared helpers for the compiler's test suites:
// one-call paths from MiniC source text to checked ASTs, IR modules, linked
// programs, and executed results. Tests across packages use these to do
// differential testing (unoptimized vs optimized vs stateful builds).
package testutil

import (
	"fmt"
	"strings"

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

// DeclEdits returns (before, after) pairs of a unit that edit declarations
// other than the function a reuse rule looks at — headers, globals,
// constants, externs — and edits that leave every function's meaning as it
// was: comments and reordering. Each pair is src with a block of
// declarations appended, before and after the edit; extern is an extern
// declaration that resolves where src is compiled or linked. The fz_
// functions are called from nowhere outside the block, so it links into
// any project. Two of the edits do not compile: a redeclaration, and a
// constant moved after the one that names it.
func DeclEdits(src, extern string) [][2]string {
	const (
		consts = "const fz_k = 3;\nconst fz_j = fz_k + 1;\n"
		global = "var fz_g int = 5;\n"
		callee = "func fz_callee(x int) int { return x * fz_k + fz_g; }\n"
		caller = "func fz_caller(y int) int { return fz_callee(y) + fz_j; }\n"
		cb     = "func fz_cb(x int) int { return x + fz_k; }\n"
		user   = "func fz_user(y int) int { fz_cb(y); return y + 2; }\n"
		lone   = "func fz_lone(z int) int { return z - fz_k; }\n"
		block  = consts + global + callee + caller + cb + user + lone
	)
	before := src + "\n" + block
	edit := func(old, new string) [2]string {
		return [2]string{before, src + "\n" + strings.Replace(block, old, new, 1)}
	}
	withExtern := src + "\n" + extern + "\n" + block
	return [][2]string{
		// A signature changes and its body does not: nothing calls it; a
		// caller whose bytes stay the same calls a function of another
		// result type; a caller changes with it.
		edit("fz_lone(z int) int", "fz_lone(z int, w int) int"),
		edit(cb, "func fz_cb(x int) bool { return x > fz_k; }\n"),
		edit(callee+caller, "func fz_callee(x int, v int) int { return x * fz_k + fz_g; }\n"+
			"func fz_caller(y int) int { return fz_callee(y, y) + fz_j; }\n"),
		// A global's initializer and a constant's value, both named by
		// functions whose bytes stay the same.
		edit(global, "var fz_g int = 6;\n"),
		edit("const fz_k = 3;", "const fz_k = 4;"),
		// An extern comes and goes.
		{before, withExtern},
		{withExtern, before},
		// A function declared a second time.
		edit(lone, lone+"func fz_lone(z int) int { return z; }\n"),
		// Comments inside a declaration and between two.
		edit("{ return z - fz_k; }", "{ return z /* } */ - fz_k; }"),
		edit(caller, "// between fz_callee and fz_caller\n"+caller),
		// Declarations reordered: two functions, constants after their
		// users, and a constant after the one it names.
		edit(caller+cb, cb+caller),
		edit(consts+global+callee, global+callee+consts),
		edit(consts, "const fz_j = fz_k + 1;\nconst fz_k = 3;\n"),
	}
}

// CodeEdits returns (before, after) pairs of a unit that edit what comes
// before a function whose final IR stays the same, fz_kept, so that a
// compile that takes fz_kept's code from the unit's last object must rebase
// it: a string literal added before its strings (their indices shift), a
// call added or removed and a function added before it (its relocations
// move in the tables, and its function index), the functions reordered,
// and a global's size changed. Each pair is src with a block of
// declarations appended, before and after the edit. fz_kept calls nothing
// inline splices, and reads a private global that globalopt constifies in
// every compile. The fz_ functions are called from nowhere outside the
// block, so it links into any project.
func CodeEdits(src string) [][2]string {
	const (
		globals = "var fz_wide [2]int;\nvar fz_buf [2]int;\nvar _fz_seed int = 4;\n"
		rec     = "func fz_rec(x int) int { if x < 1 { return 0; } return fz_rec(x - 1) + 2; }\n"
		head    = "func fz_head(x int) int { print(\"fz head\", x); fz_wide[1] = x; return x + 1; }\n"
		kept    = "func fz_kept(x int) int { print(\"fz kept\", x); assert(x != 7, \"fz kept seven\"); fz_buf[0] = fz_rec(x) + _fz_seed; return fz_buf[0]; }\n"
		block   = globals + rec + head + kept
	)
	before := src + "\n" + block
	edit := func(old, new string) [2]string {
		return [2]string{before, src + "\n" + strings.Replace(block, old, new, 1)}
	}
	call := edit("return x + 1; }", "return fz_rec(x) + 1; }")
	return [][2]string{
		edit(`print("fz head", x);`, `print("fz new", x); print("fz head", x);`),
		call,
		{call[1], call[0]},
		edit(head, head+"func fz_added(x int) int { return fz_rec(x) - 1; }\n"),
		edit(rec+head+kept, kept+head+rec),
		edit("var fz_wide [2]int;", "var fz_wide [3]int;"),
	}
}

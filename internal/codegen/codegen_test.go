package codegen_test

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vm"
)

func compileUnit(t *testing.T, src string) *codegen.Object {
	t.Helper()
	return compileNamed(t, "u.mc", src)
}

func compileNamed(t *testing.T, unit, src string) *codegen.Object {
	t.Helper()
	m, err := testutil.BuildModule(unit, src)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestObjectShape(t *testing.T) {
	obj := compileUnit(t, `
var g int = 7;
var arr [4]int;
extern func ext(x int) int;
func f(a int) int { return ext(a) + g + arr[0]; }
func main() int { return f(1); }`)
	if len(obj.Funcs) != 2 {
		t.Errorf("funcs = %d, want 2", len(obj.Funcs))
	}
	if len(obj.Globals) != 2 {
		t.Errorf("globals = %d, want 2", len(obj.Globals))
	}
	if len(obj.Relocs) == 0 {
		t.Error("no call relocations recorded")
	}
	if len(obj.GlobalRelocs) == 0 {
		t.Error("no global relocations recorded")
	}
	if len(obj.Externs) != 1 || obj.Externs[0] != "ext" {
		t.Errorf("externs = %v", obj.Externs)
	}
}

func TestLinkerDoesNotMutateObjects(t *testing.T) {
	// Linking the same objects twice must work identically — the build
	// system caches objects across builds, so the linker must copy before
	// patching.
	objA := compileNamed(t, "a.mc", `func lib(x int) int { return x + 1; }`)
	objB := compileNamed(t, "b.mc", `extern func lib(x int) int; func main() int { return lib(41); }`)

	run := func() int64 {
		p, err := codegen.Link([]*codegen.Object{objA, objB})
		if err != nil {
			t.Fatal(err)
		}
		res, err := vm.Run(p, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExitValue
	}
	if a, b := run(), run(); a != b || a != 42 {
		t.Errorf("relink results: %d then %d, want 42 both times", a, b)
	}

	// A third unit shifts layout; relinking with different sets must still
	// produce correct code from the shared cached objects.
	objC := compileNamed(t, "c.mc", `var pad [32]int; func pad_user() int { return pad[3]; }`)
	p, err := codegen.Link([]*codegen.Object{objC, objA, objB})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitValue != 42 {
		t.Errorf("after layout shift: %d, want 42", res.ExitValue)
	}
	if a := run(); a != 42 {
		t.Errorf("original link broken after third-unit link: %d", a)
	}
}

func TestDeterministicLinkOrder(t *testing.T) {
	objA := compileNamed(t, "a.mc", `var ga int = 1; func fa() int { return ga; }`)
	objB := compileNamed(t, "b.mc", `var gb int = 2; extern func fa() int; func main() int { return fa() + gb; }`)
	p1, err := codegen.Link([]*codegen.Object{objA, objB})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := codegen.Link([]*codegen.Object{objB, objA})
	if err != nil {
		t.Fatal(err)
	}
	if p1.GlobalIndex["ga"] != p2.GlobalIndex["ga"] {
		t.Error("global layout depends on object order")
	}
	if p1.FuncIndex["fa"] != p2.FuncIndex["fa"] {
		t.Error("function layout depends on object order")
	}
}

func TestPhiLoweringTrampolines(t *testing.T) {
	// After mem2reg, loop-carried values become phis whose critical edges
	// need trampolines; verify the lowered program computes correctly.
	m, err := testutil.BuildModule("u.mc", `
func collatz(n int) int {
    var steps int = 0;
    while n != 1 {
        if n % 2 == 0 { n /= 2; } else { n = 3 * n + 1; }
        steps++;
    }
    return steps;
}
func main() int { return collatz(27); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
		t.Fatal(err)
	}
	// Confirm phis actually exist post-optimization (the test is vacuous
	// otherwise).
	phis := 0
	for _, f := range m.Funcs {
		f.ForEachValue(func(v *ir.Value) {
			if v.Op == ir.OpPhi {
				phis++
			}
		})
	}
	if phis == 0 {
		t.Fatal("expected phis in optimized collatz")
	}
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codegen.Link([]*codegen.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitValue != 111 {
		t.Errorf("collatz(27) = %d, want 111", res.ExitValue)
	}
}

func TestParallelPhiCopies(t *testing.T) {
	// Swapping phis (a,b) = (b,a) in a loop is the classic parallel-copy
	// trap: naive sequential copies corrupt one value.
	src := `
func swapper(n int) int {
    var a int = 1;
    var b int = 2;
    for var i int = 0; i < n; i++ {
        var t int = a;
        a = b;
        b = t;
    }
    return a * 10 + b;
}
func main() int { return swapper(5); }`
	m, err := testutil.BuildModule("u.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	// mem2reg alone gives the phi-swap shape without later passes
	// simplifying it away.
	p, err := passes.NewFuncPass("mem2reg")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		p.Run(f)
	}
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Link([]*codegen.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 swaps from (1,2): odd count → (2,1) → 21.
	if res.ExitValue != 21 {
		t.Errorf("swapper(5) = %d, want 21", res.ExitValue)
	}
}

func TestOpcodeStrings(t *testing.T) {
	names := map[codegen.Opcode]string{
		codegen.IConst: "const", codegen.IMov: "mov", codegen.IBin: "bin",
		codegen.ICall: "call", codegen.IRet: "ret", codegen.IBr: "br",
	}
	for op, want := range names {
		if got := op.String(); got != want {
			t.Errorf("opcode %d = %q, want %q", op, got, want)
		}
	}
	if s := codegen.Opcode(200).String(); !strings.Contains(s, "200") {
		t.Errorf("unknown opcode string: %s", s)
	}
}

func TestFrameWords(t *testing.T) {
	obj := compileUnit(t, `
func f() int {
    var a [10]int;
    a[3] = 5;
    return a[3];
}
func main() int { return f(); }`)
	var f *codegen.FuncCode
	for _, fc := range obj.Funcs {
		if fc.Name == "f" {
			f = fc
		}
	}
	if f == nil {
		t.Fatal("no f")
	}
	if f.AllocaWords < 10 {
		t.Errorf("alloca words = %d, want >= 10", f.AllocaWords)
	}
	if f.FrameWords() != f.NumSlots+f.AllocaWords {
		t.Error("FrameWords inconsistent")
	}
}

func TestDisassembler(t *testing.T) {
	obj := compileUnit(t, `
var g int = 3;
func f(x int) int {
    var a [2]int;
    a[0] = x;
    print("v", a[0]);
    assert(x != 0, "nonzero");
    if x > 0 { return g; }
    return helper(x);
}
extern func helper(x int) int;
func main() int { return f(1); }`)
	asm := codegen.DisassembleObject(obj)
	for _, want := range []string{
		"object", "global g", "extern helper", "func f:", "lea fp+",
		"idx", "load", "store", "br s", "ret s", `print "v"`,
		`assert s`, "; -> @helper", "; -> @g",
	} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
	p, err := codegen.Link([]*codegen.Object{obj,
		compileNamed(t, "h.mc", `func helper(x int) int { return x; }`)})
	if err != nil {
		t.Fatal(err)
	}
	pasm := codegen.DisassembleProgram(p)
	if !strings.Contains(pasm, "program:") || !strings.Contains(pasm, "call #") {
		t.Errorf("program disassembly broken:\n%s", pasm)
	}
	if pasm != codegen.DisassembleProgram(p) {
		t.Error("disassembly nondeterministic")
	}
}

func TestOptimizedVsUnoptimizedCodegen(t *testing.T) {
	// The same source must behave identically when codegen consumes
	// memory-form IR and fully optimized IR.
	src := `
func main() int {
    var acc int = 0;
    for var i int = 1; i <= 6; i++ {
        acc += i * i;
    }
    print("acc", acc);
    return acc % 100;
}`
	out1, exit1, err := testutil.RunSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out2, exit2, err := testutil.RunSource(src, func(m *ir.Module) error {
		_, err := passes.RunPipeline(m, passes.StandardPipeline)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 || exit1 != exit2 {
		t.Errorf("codegen differs across IR forms: %q/%d vs %q/%d", out1, exit1, out2, exit2)
	}
}

// TestInstrLayout: an instruction is 24 bytes with nothing in it the
// collector has to follow. A linked megarepo program is 58 762 of them, and
// whoever keeps programs keeps that many times this size.
func TestInstrLayout(t *testing.T) {
	if size := unsafe.Sizeof(codegen.Instr{}); size != 24 {
		t.Errorf("Instr is %d bytes, want 24", size)
	}
	typ := reflect.TypeOf(codegen.Instr{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Instr.%s is a %s: only fixed-size integers belong in an instruction", f.Name, f.Type.Kind())
		}
	}
}

// TestRelocationsInSiteOrder: the compiler emits an object's relocations in
// (Func, Pc) order and the linker walks them beside the code with a cursor; an
// object whose tables are out of order, short or long is refused by Validate
// and by Link, never patched wrongly.
func TestRelocationsInSiteOrder(t *testing.T) {
	src := `
var g int = 3;
extern func lib(x int) int;
func twice(x int) int { return lib(x) + lib(x + g); }
func main() int { return twice(g) + lib(1); }`
	lib := compileNamed(t, "lib.mc", `func lib(x int) int { return x + 1; }`)
	for name, edit := range map[string]func(o *codegen.Object){
		"swapped":   func(o *codegen.Object) { o.Relocs[0], o.Relocs[1] = o.Relocs[1], o.Relocs[0] },
		"short":     func(o *codegen.Object) { o.Relocs = o.Relocs[:len(o.Relocs)-1] },
		"duplicate": func(o *codegen.Object) { o.Relocs = append(o.Relocs, o.Relocs[len(o.Relocs)-1]) },
		"globals":   func(o *codegen.Object) { o.GlobalRelocs = o.GlobalRelocs[1:] },
	} {
		obj := compileNamed(t, "u.mc", src)
		if len(obj.Relocs) < 3 || len(obj.GlobalRelocs) < 2 {
			t.Fatalf("case is wrong about itself: %d call and %d global relocations", len(obj.Relocs), len(obj.GlobalRelocs))
		}
		if err := obj.Validate(); err != nil {
			t.Fatalf("compiled object: %v", err)
		}
		if _, err := codegen.Link([]*codegen.Object{obj, lib}); err != nil {
			t.Fatalf("compiled object: %v", err)
		}
		edit(obj)
		if err := obj.Validate(); err == nil {
			t.Errorf("%s: Validate accepts the object", name)
		}
		if _, err := codegen.Link([]*codegen.Object{obj, lib}); err == nil {
			t.Errorf("%s: Link accepts the object", name)
		}
	}
}

// TestUnreachedCodeIsStillLinked: main reaches nothing of what is wrong in
// these programs, and the linker refuses each with the message it had when it
// emitted every function.
func TestUnreachedCodeIsStillLinked(t *testing.T) {
	main := `func main() int { return 0; }`
	for _, tc := range []struct {
		name  string
		units map[string]string
		edit  func(o *codegen.Object) // of unit dead.mc, after it compiled
		want  string
	}{
		{"undefined function",
			map[string]string{"dead.mc": `extern func gone(x int) int; func dead() int { return gone(1); }`}, nil,
			"link: undefined function gone (called from dead in unit dead.mc)"},
		{"undefined global",
			map[string]string{"dead.mc": `var g int = 1; func dead() int { return g; }`},
			func(o *codegen.Object) { o.Globals = nil },
			"link: undefined global g (used by dead in unit dead.mc)"},
		{"arity",
			map[string]string{
				"dead.mc": `extern func lib(x int) int; func dead() int { return lib(1); }`,
				"lib.mc":  `func lib(x int, y int) int { return x + y; }`}, nil,
			"link: dead calls lib with 1 args, want 2"},
		{"duplicate function",
			map[string]string{"dead.mc": `func dead() int { return 1; }`, "dead2.mc": `func dead() int { return 2; }`}, nil,
			"link: duplicate function dead (unit dead2.mc)"},
		{"duplicate global",
			map[string]string{"dead.mc": `var g int = 1;`, "dead2.mc": `var g int = 2;`}, nil,
			"link: duplicate global g (unit dead2.mc)"},
		{"relocation missing",
			map[string]string{"dead.mc": `extern func lib(x int) int; func dead() int { return lib(1) + lib(2); }`, "lib.mc": `func lib(x int) int { return x; }`},
			func(o *codegen.Object) { o.Relocs = o.Relocs[1:] },
			"has no relocation, or the unit's relocations are out of site order"},
		{"relocation left over",
			map[string]string{"dead.mc": `extern func lib(x int) int; func dead() int { return lib(1); }`, "lib.mc": `func lib(x int) int { return x; }`},
			func(o *codegen.Object) { o.Relocs = append(o.Relocs, o.Relocs[0]) },
			"link: unit dead.mc has 1 relocation(s) that name no call or global-address site in order"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objs := []*codegen.Object{compileNamed(t, "main.mc", main)}
			for unit, src := range tc.units {
				obj := compileNamed(t, unit, src)
				if unit == "dead.mc" && tc.edit != nil {
					tc.edit(obj)
				}
				objs = append(objs, obj)
			}
			_, err := codegen.Link(objs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Link: %v, want an error with %q", err, tc.want)
			}
		})
	}
}

// TestUnreachedFunctionIsInTheDisassembly: a function main does not reach is
// one line of DisassembleProgram, and that line follows the function's
// content — an instruction, the symbol a call names, a string an assertion
// prints — so a comparison of two programs' text sees what either left out.
func TestUnreachedFunctionIsInTheDisassembly(t *testing.T) {
	const dead = `
var g int = 3;
extern func lib(x int) int;
extern func lib2(x int) int;
func dead(x int) int { assert(x != 0, "nonzero"); return lib(x) + g; }`
	link := func(edit func(o *codegen.Object)) string {
		t.Helper()
		obj := compileNamed(t, "dead.mc", dead)
		if edit != nil {
			edit(obj)
			if err := obj.Validate(); err != nil { // what made the object records its digests
				t.Fatal(err)
			}
		}
		p, err := codegen.Link([]*codegen.Object{obj,
			compileNamed(t, "lib.mc", `func lib(x int) int { return x; } func lib2(x int) int { return x; }`),
			compileNamed(t, "main.mc", `func main() int { return 0; }`)})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Funcs) != 1 || len(p.Unreached) != 3 || p.Funcs[p.EntryIndex].Name != "main" {
			t.Fatalf("%d functions linked, %d left out; want main alone and three left out", len(p.Funcs), len(p.Unreached))
		}
		return codegen.DisassembleProgram(p)
	}
	base := link(nil)
	if !strings.Contains(base, "\nunreached dead: ") || !strings.Contains(base, "\nunreached lib2: ") {
		t.Fatalf("no line for a function left out:\n%s", base)
	}
	if again := link(func(*codegen.Object) {}); again != base {
		t.Error("validating an object again changed its digests")
	}
	for name, edit := range map[string]func(o *codegen.Object){
		"instruction": func(o *codegen.Object) {
			for pc := range o.Funcs[0].Code {
				if in := &o.Funcs[0].Code[pc]; in.Op == codegen.IBin {
					in.Sub ^= 1
					return
				}
			}
			t.Fatal("no binary operation to flip")
		},
		"call symbol":   func(o *codegen.Object) { o.Relocs[0].Symbol = "lib2" },
		"global symbol": func(o *codegen.Object) { o.Globals[0].Name, o.GlobalRelocs[0].Symbol = "h", "h" },
		"string":        func(o *codegen.Object) { o.Strings[0] = "non-zero" },
		"frame":         func(o *codegen.Object) { o.Funcs[0].NumSlots++ },
	} {
		if got := link(edit); got == base {
			t.Errorf("%s changed in a function main does not reach, and the disassembly did not", name)
		}
	}
}

// linkerUnits are the units the Linker tests edit: main calls lib, and
// user.mc's object uses lib.mc's global g (an object whose own definition
// of g was taken out, the way only a hand-made object can name another
// unit's global).
func linkerUnits(t *testing.T) map[string]*codegen.Object {
	t.Helper()
	user := compileNamed(t, "user.mc", `var g int = 1; func use() int { return g + 1; }`)
	user.Globals = nil
	if err := user.Validate(); err != nil {
		t.Fatal(err)
	}
	return map[string]*codegen.Object{
		"lib.mc":  compileNamed(t, "lib.mc", `var g int = 5; func lib(x int) int { return x + g; } func spare() int { return 2; }`),
		"main.mc": compileNamed(t, "main.mc", `extern func lib(x int) int; func main() int { print("r", lib(1)); return lib(2); }`),
		"user.mc": user,
	}
}

// objectList is units' objects in an order that is not layout order.
func objectList(units map[string]*codegen.Object) (objs []*codegen.Object) {
	for _, o := range units {
		objs = append(objs, o)
	}
	return objs
}

// TestLinkerChecksWhatMoved: a warm Linker checks the objects it has not
// seen and links what Link links.
func TestLinkerChecksWhatMoved(t *testing.T) {
	units := linkerUnits(t)
	var l codegen.Linker
	link := func(wantChecked int) {
		t.Helper()
		objs := objectList(units)
		got, err := l.Link(objs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := codegen.Link(objs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("warm Linker:\n%s\nLink:\n%s", codegen.DisassembleProgram(got), codegen.DisassembleProgram(want))
		}
		if l.Checked() != wantChecked {
			t.Errorf("checked %d objects, want %d", l.Checked(), wantChecked)
		}
	}
	link(3)
	link(0)
	units["lib.mc"] = compileNamed(t, "lib.mc", `var g int = 5; func lib(x int) int { return x * g; } func spare() int { return 3; }`)
	link(1)
	units["lib.mc"] = compileNamed(t, "lib.mc", `var g int = 5; var h [3]int; func lib(x int) int { return x * g + h[1]; }`)
	link(1) // spare is gone and the global segment is laid out again; nobody names either
	again := *units["user.mc"]
	if err := again.Validate(); err != nil {
		t.Fatal(err)
	}
	units["user.mc"] = &again // validated again: a new object to the Linker
	link(1)
	units["extra.mc"] = compileNamed(t, "extra.mc", `func extra(a int, b int) int { return a - b; }`)
	link(1)
	delete(units, "extra.mc")
	link(0)
	units["zz.mc"] = compileNamed(t, "zz.mc", `var last int = 9; func zz() int { return last; }`)
	link(1)
	delete(units, "zz.mc") // the last object's global leaves the segment
	link(0)
	units["early.mc"] = compileNamed(t, "early.mc", `func early(x int) int { return x - 1; }`)
	link(1)
	// lib now reaches early, which comes before it in layout: the call to
	// lib in main, whose object is unchanged, is patched anew.
	units["lib.mc"] = compileNamed(t, "lib.mc", `extern func early(x int) int; var g int = 5; var h [3]int; func lib(x int) int { return early(x) * g + h[1]; }`)
	link(1)
}

// TestLinkerErrorsMatchLink: whatever a warm Linker is asked to link that
// does not link, it refuses with the error Link gives, and after the fix it
// links what Link links, having forgotten everything it knew.
func TestLinkerErrorsMatchLink(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, units map[string]*codegen.Object)
		want string
	}{
		{"changed unit calls an undefined function", func(t *testing.T, units map[string]*codegen.Object) {
			units["main.mc"] = compileNamed(t, "main.mc", `extern func lib(x int) int; extern func gone() int; func main() int { return lib(1) + gone(); }`)
		}, "link: undefined function gone (called from main in unit main.mc)"},
		{"callee's arity changes under an unchanged caller", func(t *testing.T, units map[string]*codegen.Object) {
			units["lib.mc"] = compileNamed(t, "lib.mc", `var g int = 5; func lib(x int, y int) int { return x + y + g; } func spare() int { return 2; }`)
		}, "link: main calls lib with 1 args, want 2"},
		{"global used by an unchanged unit is removed", func(t *testing.T, units map[string]*codegen.Object) {
			units["lib.mc"] = compileNamed(t, "lib.mc", `func lib(x int) int { return x; } func spare() int { return 2; }`)
		}, "link: undefined global g (used by use in unit user.mc)"},
		{"duplicate function across units", func(t *testing.T, units map[string]*codegen.Object) {
			units["dup.mc"] = compileNamed(t, "dup.mc", `func spare() int { return 4; }`)
		}, "link: duplicate function spare (unit lib.mc)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			units := linkerUnits(t)
			var l codegen.Linker
			if _, err := l.Link(objectList(units)); err != nil {
				t.Fatal(err)
			}
			good := objectList(units)
			tc.edit(t, units)
			bad := objectList(units)
			_, want := codegen.Link(bad)
			if want == nil || want.Error() != tc.want {
				t.Fatalf("Link: %v, want %q", want, tc.want)
			}
			if _, err := l.Link(bad); err == nil || err.Error() != want.Error() {
				t.Fatalf("warm Linker: %v, want %q", err, want)
			}
			got, err := l.Link(good)
			if err != nil {
				t.Fatalf("after the fix: %v", err)
			}
			if wantProg, _ := codegen.Link(good); !reflect.DeepEqual(got, wantProg) {
				t.Errorf("after the fix the warm Linker links another program")
			}
			if l.Checked() != len(good) {
				t.Errorf("after a failed link the Linker checked %d objects, want all %d", l.Checked(), len(good))
			}
		})
	}
}

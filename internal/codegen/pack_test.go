package codegen_test

import (
	"slices"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// compileBoth compiles the module with and without slot packing.
func compileBoth(t *testing.T, src string) (packed, plain *codegen.Object) {
	t.Helper()
	build := func(opts codegen.Options) *codegen.Object {
		m, err := testutil.BuildModule("u.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
			t.Fatal(err)
		}
		obj, err := codegen.CompileWithOptions(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}
	return build(codegen.Options{}), build(codegen.Options{DisableSlotPacking: true})
}

const packSrc = `
func chain(n int) int {
    var a int = n + 1;
    var b int = a * 2;
    var c int = b - 3;
    var d int = c * c;
    var e int = d + a;
    var f int = e % 97;
    var g int = f << 2;
    var h int = g ^ 15;
    return h;
}
func loopy(n int) int {
    var acc int = 0;
    for var i int = 0; i < n; i++ {
        var t1 int = i * 3;
        var t2 int = t1 + 7;
        var t3 int = t2 % 13;
        acc += t3;
    }
    return acc;
}
func main() int { return chain(5) + loopy(20); }
`

func TestPackingShrinksFrames(t *testing.T) {
	packed, plain := compileBoth(t, packSrc)
	shrunk := false
	for i, pf := range packed.Funcs {
		uf := plain.Funcs[i]
		if pf.NumSlots > uf.NumSlots {
			t.Errorf("func %s: packing grew slots %d -> %d", pf.Name, uf.NumSlots, pf.NumSlots)
		}
		if pf.NumSlots < uf.NumSlots {
			shrunk = true
		}
	}
	if !shrunk {
		t.Error("packing never reduced any frame")
	}
}

func TestPackingPreservesBehaviour(t *testing.T) {
	packed, plain := compileBoth(t, packSrc)
	run := func(obj *codegen.Object) (string, int64, int) {
		p, err := codegen.Link([]*codegen.Object{obj})
		if err != nil {
			t.Fatal(err)
		}
		out, res, err := vm.RunCapture(p, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return out, res.ExitValue, res.MaxStack
	}
	o1, e1, stack1 := run(packed)
	o2, e2, stack2 := run(plain)
	if o1 != o2 || e1 != e2 {
		t.Errorf("packing changed behaviour: %q/%d vs %q/%d", o1, e1, o2, e2)
	}
	if stack1 > stack2 {
		t.Errorf("packed stack %d > plain stack %d", stack1, stack2)
	}
}

// TestPackingDifferentialOnGenerated runs packed vs unpacked codegen over
// generated projects (memory form and optimized), comparing behaviour.
func TestPackingDifferentialOnGenerated(t *testing.T) {
	for _, seed := range []int64{3, 17, 29} {
		profile := workload.Profile{
			Name: "pack", Seed: seed,
			Files: 3, FuncsPerFileMin: 3, FuncsPerFileMax: 6,
			StmtsPerFuncMin: 4, StmtsPerFuncMax: 9,
			GlobalsPerFile: 2, CrossFileCallFrac: 0.5, PrivateFrac: 0.3,
		}
		snap := workload.Generate(profile)
		for _, optimize := range []bool{false, true} {
			run := func(opts codegen.Options) (string, int64) {
				var objs []*codegen.Object
				for _, unit := range snap.Units() {
					m, err := testutil.BuildModule(unit, string(snap[unit]))
					if err != nil {
						t.Fatal(err)
					}
					if optimize {
						if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
							t.Fatal(err)
						}
					}
					obj, err := codegen.CompileWithOptions(m, opts)
					if err != nil {
						t.Fatal(err)
					}
					objs = append(objs, obj)
				}
				p, err := codegen.Link(objs)
				if err != nil {
					t.Fatal(err)
				}
				out, res, err := vm.RunCapture(p, vm.Config{})
				if err != nil {
					t.Fatal(err)
				}
				return out, res.ExitValue
			}
			o1, e1 := run(codegen.Options{})
			o2, e2 := run(codegen.Options{DisableSlotPacking: true})
			if o1 != o2 || e1 != e2 {
				t.Fatalf("seed %d optimize=%t: packing diverged:\n%q/%d\nvs\n%q/%d",
					seed, optimize, o1, e1, o2, e2)
			}
		}
	}
}

// TestPackingPhiHeavy targets the parallel-copy interaction: loop-carried
// phis whose sources and destinations could alias if interference were
// wrong.
func TestPackingPhiHeavy(t *testing.T) {
	src := `
func rotate3(n int) int {
    var a int = 1;
    var b int = 2;
    var c int = 3;
    for var i int = 0; i < n; i++ {
        var t int = a;
        a = b;
        b = c;
        c = t;
    }
    return a * 100 + b * 10 + c;
}
func main() int { return rotate3(4); }`
	m, err := testutil.BuildModule("u.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	// mem2reg only: maximal phi pressure, no simplification.
	p, _ := passes.NewFuncPass("mem2reg")
	for _, f := range m.Funcs {
		p.Run(f)
	}
	obj, err := codegen.CompileWithOptions(m, codegen.Options{})
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
	// 4 rotations of (1,2,3): each rotation (a,b,c) = (b,c,a);
	// after 4: (2,3,1) → 231.
	if res.ExitValue != 231 {
		t.Errorf("rotate3(4) = %d, want 231", res.ExitValue)
	}
}

// TestPackingDeterministic: packed slot assignment must be reproducible.
func TestPackingDeterministic(t *testing.T) {
	a, _ := compileBoth(t, packSrc)
	b, _ := compileBoth(t, packSrc)
	for i := range a.Funcs {
		if a.Funcs[i].NumSlots != b.Funcs[i].NumSlots {
			t.Fatalf("func %s: slot counts differ across runs", a.Funcs[i].Name)
		}
		if !slices.Equal(a.Funcs[i].Code, b.Funcs[i].Code) || !slices.Equal(a.Funcs[i].Args, b.Funcs[i].Args) {
			t.Fatalf("func %s: code differs across runs", a.Funcs[i].Name)
		}
	}
}

package compiler_test

// The driver removes the functions deadfunc would delete before the first
// pass (passes.PruneDeadFuncs), under every policy, so the stateless
// compiler is no longer a reference for it. These tests hold every mode to
// the one that does not go through the driver: testutil.CompileUnpruned,
// the frontend + passes.RunPipeline + codegen.Compile.

import (
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// pruneMode is one compiler configuration under test.
type pruneMode struct {
	name string
	opts compiler.Options
}

// pruneModes are the four arms, and the stateful one audited at rate 1.
func pruneModes() []pruneMode {
	var ms []pruneMode
	for _, arm := range oracletest.Arms {
		ms = append(ms, pruneMode{arm.String(), compiler.Options{Mode: arm}})
	}
	return append(ms, pruneMode{"audited", compiler.Options{Mode: compiler.ModeStateful, AuditRate: 1}})
}

// unprunedOutput is the reference: post-pipeline module text and object
// disassembly.
func unprunedOutput(t *testing.T, unit, src string) (string, string) {
	t.Helper()
	m, obj, err := testutil.CompileUnpruned(unit, src, nil)
	if err != nil {
		t.Fatalf("%s: reference: %v", unit, err)
	}
	return m.String(), codegen.DisassembleObject(obj)
}

// modeCompiler compiles units under one mode, each twice: cold, then with
// the state (records, segment memo or both) the first compile left,
// so skipping and replay run.
type modeCompiler struct {
	c      *compiler.Compiler
	states map[string]*core.UnitState
}

func newModeCompiler(t *testing.T, m pruneMode) *modeCompiler {
	t.Helper()
	c, err := compiler.New(m.opts)
	if err != nil {
		t.Fatal(err)
	}
	return &modeCompiler{c: c, states: map[string]*core.UnitState{}}
}

// compile compiles one unit and returns its module text, disassembly and
// the number of functions the driver pruned.
func (mc *modeCompiler) compile(t *testing.T, unit, src string) (string, string, int) {
	t.Helper()
	r, err := mc.c.CompileUnit(unit, []byte(src), mc.states[unit])
	if err != nil {
		t.Fatalf("%s: %v", unit, err)
	}
	mc.states[unit] = r.State
	if _, unsound := r.Stats.SentinelTotals(); unsound != 0 {
		t.Fatalf("%s: %d unsound skips", unit, unsound)
	}
	return r.Module.String(), codegen.DisassembleObject(r.Object), r.Stats.Pruned
}

// checkAgainstUnpruned compiles every unit of units twice under every mode
// and fails where the module text or the object differs from the
// reference, or where the driver's policies prune different numbers of
// functions (each must hash and optimize the same functions, or the
// stateful gain would be credited with the pruning). It returns the
// functions the stateless driver pruned.
func checkAgainstUnpruned(t *testing.T, units []string, src func(string) string) int {
	t.Helper()
	type ref struct{ text, dis string }
	refs := make(map[string]ref, len(units))
	for _, u := range units {
		text, dis := unprunedOutput(t, u, src(u))
		refs[u] = ref{text, dis}
	}
	pruned := map[string]int{}
	for _, mode := range pruneModes() {
		mc := newModeCompiler(t, mode)
		for round := 0; round < 2; round++ {
			for _, u := range units {
				text, dis, n := mc.compile(t, u, src(u))
				if text != refs[u].text {
					t.Fatalf("%s, compile %d: %s: module differs from the unpruned reference\n--- got ---\n%s\n--- want ---\n%s",
						mode.name, round+1, u, text, refs[u].text)
				}
				if dis != refs[u].dis {
					t.Fatalf("%s, compile %d: %s: object differs from the unpruned reference\n--- got ---\n%s\n--- want ---\n%s",
						mode.name, round+1, u, dis, refs[u].dis)
				}
				if round == 0 {
					pruned[mode.name] += n
				}
			}
		}
	}
	for name, n := range pruned {
		if n != pruned["stateless"] {
			t.Fatalf("%s pruned %d functions, stateless %d", name, n, pruned["stateless"])
		}
	}
	return pruned["stateless"]
}

// TestEveryModeMatchesTheUnprunedReference holds the five modes to the
// unpruned reference over the eight suite profiles and the megarepo.
func TestEveryModeMatchesTheUnprunedReference(t *testing.T) {
	profiles := append(workload.StandardSuite(), workload.MegaProfile())
	total := 0
	for _, p := range profiles {
		t.Run(p.Name, func(t *testing.T) {
			snap := workload.Generate(p)
			n := checkAgainstUnpruned(t, snap.Units(), func(u string) string { return string(snap[u]) })
			t.Logf("%d units, %d functions pruned", len(snap.Units()), n)
			total += n
		})
	}
	if total == 0 && !t.Failed() {
		t.Fatal("no profile has a function to prune: the test holds nothing")
	}
}

// pruneTraps are hand-written units, since generated code has no call
// between two functions of one unit. want is the number of functions the
// driver must prune; every one must compile to the unpruned reference.
var pruneTraps = []struct {
	name string
	src  string
	want int
}{
	// A store in a dead function keeps _g from being constified until
	// globalopt runs; pruning it would constify main's load.
	{"dead store to a private global", `
var _g int = 5;
func _w() { _g = 7; }
func main() int { return _g; }
`, 0},
	// MiniC has no address-of: the closest to passing &_g is passing _g,
	// read through its address. The callee names no global, but shares the
	// caller's component.
	{"dead caller passes a private global to a dead callee", `
var _g int = 3;
func _ign(x int) int { return 1; }
func _d() int { return _ign(_g); }
func main() int { return 0; }
`, 0},
	// _d comes first, so the inliner's postorder enters the live cycle
	// through _b; without _d it would enter through _a.
	{"dead caller of a live mutually recursive pair", `
func _d(n int) int { return _b(n) + 3; }
func _a(n int) int { if n <= 0 { return 0; } return _b(n - 1) + 1; }
func _b(n int) int { if n <= 0 { return 1; } return _a(n - 1) * 2; }
func main() int { return _a(5); }
`, 0},
	// deadfunc keeps a function that calls itself.
	{"dead self-recursive function", `
func _r(n int) int { if n <= 0 { return 0; } return _r(n - 1) + 2; }
func main() int { return 1; }
`, 0},
	// The inliner turns a dead cycle into a self-recursive function and an
	// uncalled caller of it; deadfunc deletes the caller and keeps the
	// other.
	{"dead mutually recursive pair", `
func _x(n int) int { if n <= 0 { return 0; } return _y(n - 1) + 1; }
func _y(n int) int { if n <= 0 { return 1; } return _x(n - 1) * 2; }
func main() int { return 1; }
`, 0},
	{"dead chain", `
func _q(x int) int { return x * 2; }
func _p(x int) int { var s int = 0; for var i int = 0; i < x; i++ { s += _q(i); } return s; }
func main() int { return 3; }
`, 2},
	{"dead function calling only other units", `
extern func ext(n int) int;
func _e(n int) int { return ext(n) + ext(1); }
func main() int { return ext(2); }
`, 1},
	// A public global is not globalopt's to constify.
	{"dead function storing to a public global", `
var g int = 4;
func _s() { g = 9; }
func main() int { return g; }
`, 1},
}

// TestPruneTraps holds every mode to the unpruned reference on units with
// calls between their own functions, and the driver to the prune count each
// was written for.
func TestPruneTraps(t *testing.T) {
	for _, tc := range pruneTraps {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkAgainstUnpruned(t, []string{"trap.mc"}, func(string) string { return tc.src }); got != tc.want {
				t.Fatalf("pruned %d functions, want %d", got, tc.want)
			}
		})
	}
}

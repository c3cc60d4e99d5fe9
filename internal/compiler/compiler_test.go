package compiler_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/ir"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/passes"
	"statefulcc/internal/state"
	"statefulcc/internal/vm"
)

const libSrc = `
var _mode int = 1;
var shared int;

func _twist(x int) int {
    if _mode > 0 { return x * 3 + 1; }
    return x / 2;
}

func churn(n int) int {
    var acc int = 0;
    for var i int = 1; i <= n; i++ {
        acc += _twist(i);
    }
    shared = acc;
    return acc;
}
`

const mainSrc = `
extern func churn(n int) int;

func fib(n int) int {
    if n < 2 { return n; }
    return fib(n - 1) + fib(n - 2);
}

func main() int {
    print("churn", churn(10));
    print("fib", fib(12));
    return churn(3) + fib(7);
}
`

// runProgram links the given unit results and executes the program.
func runProgram(t *testing.T, results ...*compiler.UnitResult) (string, int64) {
	t.Helper()
	var objs []*codegen.Object
	for _, r := range results {
		objs = append(objs, r.Object)
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

func compileBoth(t *testing.T, c *compiler.Compiler, states map[string]*core.UnitState) (string, int64, map[string]*core.UnitState) {
	t.Helper()
	newStates := map[string]*core.UnitState{}
	var results []*compiler.UnitResult
	for _, u := range []struct{ name, src string }{{"lib.mc", libSrc}, {"main.mc", mainSrc}} {
		r, err := c.CompileUnit(u.name, []byte(u.src), states[u.name])
		if err != nil {
			t.Fatal(err)
		}
		newStates[u.name] = r.State
		results = append(results, r)
	}
	out, exit := runProgram(t, results...)
	return out, exit, newStates
}

// TestAllModesAgree: every policy must produce the same program behaviour,
// across repeated and edited builds.
func TestAllModesAgree(t *testing.T) {
	base, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantExit, _ := compileBoth(t, base, map[string]*core.UnitState{})

	for _, mode := range oracletest.Arms {
		c, err := compiler.New(compiler.Options{Mode: mode, VerifyIR: true})
		if err != nil {
			t.Fatal(err)
		}
		states := map[string]*core.UnitState{}
		for round := 0; round < 3; round++ {
			out, exit, ns := compileBoth(t, c, states)
			states = ns
			if out != wantOut || exit != wantExit {
				t.Errorf("%v round %d: behaviour differs: %q/%d vs %q/%d",
					mode, round, out, exit, wantOut, wantExit)
			}
		}
	}
}

// TestStatefulSkipsOnRebuild: the compiler facade must surface skipping.
func TestStatefulSkipsOnRebuild(t *testing.T) {
	c, err := compiler.New(compiler.Options{Mode: compiler.ModeStateful})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.CompileUnit("lib.mc", []byte(libSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The state a fresh process loads: the records, without the segment
	// memo r1.State holds in memory.
	fresh, err := state.DecodeBytes(state.Marshal(r1.State))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.CompileUnit("lib.mc", []byte(libSrc), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, skipped := r2.Stats.Totals(); skipped == 0 {
		t.Error("no skips on identical rebuild")
	}
	// Resident, the identical rebuild replays its segments instead. (A
	// result's Module lasts until the compiler's next compile.)
	want := r2.Module.String()
	r3, err := c.CompileUnit("lib.mc", []byte(libSrc), r1.State)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, sl := range r3.Stats.Slots {
		replayed += sl.Replayed
	}
	if replayed == 0 {
		t.Error("no replays on a resident identical rebuild")
	}
	if r3.Module.String() != want {
		t.Error("the replayed rebuild's IR differs from the dormancy rebuild's")
	}
	if r2.TotalNS <= 0 || r2.FrontendNS <= 0 || r2.PassesNS <= 0 || r2.CodegenNS <= 0 {
		t.Errorf("stage times not populated: total %d, frontend %d, passes %d, codegen %d",
			r2.TotalNS, r2.FrontendNS, r2.PassesNS, r2.CodegenNS)
	}
	if sum := r2.FrontendNS + r2.PassesNS + r2.CodegenNS; sum > r2.TotalNS {
		t.Errorf("stage times sum to %dns, past the unit's %dns", sum, r2.TotalNS)
	}
}

// replays sums the executions r's replays avoided.
func replays(r *compiler.UnitResult) int {
	n := 0
	for _, sl := range r.Stats.Slots {
		n += sl.Replayed
	}
	return n
}

// functionRuns sums the pass executions of r's function slots: 0 when
// every function replayed every segment.
func functionRuns(r *compiler.UnitResult) int {
	n := 0
	for _, sl := range r.Stats.Slots {
		if !sl.Module {
			n += sl.Runs
		}
	}
	return n
}

// TestFullCacheHitsOnRebuild: an identical rebuild replays every function
// slot of every function, and an edit runs some again.
func TestFullCacheHitsOnRebuild(t *testing.T) {
	c, err := compiler.New(compiler.Options{Mode: core.Replay})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.CompileUnit("main.mc", []byte(mainSrc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := replays(r1); n != 0 {
		t.Errorf("cold build replayed %d executions", n)
	}
	if r1.State.MemoBytes() == 0 {
		t.Error("replay reports zero state")
	}
	r2, err := c.CompileUnit("main.mc", []byte(mainSrc), r1.State)
	if err != nil {
		t.Fatal(err)
	}
	if n := functionRuns(r2); n != 0 || replays(r2) == 0 {
		t.Errorf("identical rebuild ran %d function-slot executions and replayed %d", n, replays(r2))
	}
	// Edit fib: fib's first segment misses, and so does every segment
	// whose input fib's new body reaches.
	edited := strings.Replace(mainSrc, "return fib(n - 1) + fib(n - 2);", "return fib(n - 1) + fib(n - 2) + 0;", 1)
	r3, err := c.CompileUnit("main.mc", []byte(edited), r2.State)
	if err != nil {
		t.Fatal(err)
	}
	if functionRuns(r3) == 0 {
		t.Error("edit ran no function slot")
	}
}

// TestFullCacheIndependentFunctionHits: editing one function must not
// invalidate an unrelated one. The first segment's input is each
// function's own body, so beta and main (unchanged before inlining)
// replay it; after inline main holds alpha's new body, so the second
// segment replays beta alone. Beta replays every function slot, edited
// alpha none.
func TestFullCacheIndependentFunctionHits(t *testing.T) {
	src1 := `
func alpha(x int) int { return x * 2; }
func beta(x int) int { return x + 5; }
func main() int { return alpha(1) + beta(2); }`
	src2 := strings.Replace(src1, "x * 2", "x * 4", 1)

	c, err := compiler.New(compiler.Options{Mode: core.Replay})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.CompileUnit("u.mc", []byte(src1), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.CompileUnit("u.mc", []byte(src2), r1.State)
	if err != nil {
		t.Fatal(err)
	}
	inline := slices.Index(r2.Stats.Pipeline, "inline")
	for slot, sl := range r2.Stats.Slots {
		want := 0
		switch {
		case sl.Module:
		case slot < inline:
			want = 2 // beta, main
		default:
			want = 1 // beta
		}
		if sl.Replayed != want {
			t.Errorf("slot %d (%s) replayed %d functions, want %d", slot, r2.Stats.Pipeline[slot], sl.Replayed, want)
		}
	}
}

// TestFullCacheGlobalUsageTrap is the classic staleness trap: an
// unreachable store to a private global in another function flips to
// reachable; the reader's constified body must not be reused. globalopt
// runs on the real IR in every compile, so the edit's module is the
// stateless compile's.
func TestFullCacheGlobalUsageTrap(t *testing.T) {
	srcDead := `
var _g int = 5;
func writer(c bool) int {
    if false { _g = 7; }
    return 0;
}
func reader() int { return _g; }
func main() int {
    var r int = writer(true);
    return r + reader();
}`
	srcLive := strings.Replace(srcDead, "if false { _g = 7; }", "if c { _g = 7; }", 1)

	c, err := compiler.New(compiler.Options{Mode: core.Replay})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := c.CompileUnit("u.mc", []byte(srcDead), nil)
	if err != nil {
		t.Fatal(err)
	}
	out1, res1 := execUnit(t, r1)
	r2, err := c.CompileUnit("u.mc", []byte(srcLive), r1.State)
	if err != nil {
		t.Fatal(err)
	}
	got := r2.Module.String()
	out2, res2 := execUnit(t, r2)
	base, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.CompileUnit("u.mc", []byte(srcLive), nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := want.Module.String(); got != w {
		t.Errorf("live-store module differs from stateless:\n%s\nwant:\n%s", got, w)
	}
	if out1 != "" || out2 != "" {
		t.Errorf("unexpected output %q %q", out1, out2)
	}
	if res1 != 5 {
		t.Errorf("dead-store build exit = %d, want 5", res1)
	}
	if res2 != 7 {
		t.Errorf("live-store build exit = %d, want 7 (stale constified reader?)", res2)
	}
}

func execUnit(t *testing.T, r *compiler.UnitResult) (string, int64) {
	t.Helper()
	p, err := codegen.Link([]*codegen.Object{r.Object})
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := vm.RunCapture(p, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return out, res.ExitValue
}

// TestCancelledCompileAborts: under every policy, a compile under a
// cancelled context stops in the pipeline with an error wrapping
// context.Canceled.
func TestCancelledCompileAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range oracletest.Arms {
		c, err := compiler.New(compiler.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CompileUnitContext(ctx, "lib.mc", []byte(libSrc), nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: cancelled compile returned %v, want context.Canceled", mode, err)
		}
	}
}

// TestVerifyIRCatchesABrokenPass: under every policy, VerifyIR stops the
// compile at the pass that broke the IR and names it.
func TestVerifyIRCatchesABrokenPass(t *testing.T) {
	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultObserve, Func: "churn", Observe: func(f *ir.Func) {
		entry := f.Entry()
		entry.Preds = append(entry.Preds, entry)
	}})
	defer passes.DisarmFaultHook()
	for _, mode := range oracletest.Arms {
		c, err := compiler.New(compiler.Options{Mode: mode, VerifyIR: true, Pipeline: []string{"mem2reg", "faulthook"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CompileUnit("lib.mc", []byte(libSrc), nil); err == nil || !strings.Contains(err.Error(), "pass faulthook broke lib.mc.churn") {
			t.Errorf("%v: compile through a broken pass returned %v, want the verifier's error", mode, err)
		}
	}
}

// TestFrontendErrors surface cleanly.
func TestFrontendErrors(t *testing.T) {
	c, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompileUnit("bad.mc", []byte(`func f( {`), nil); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := c.CompileUnit("bad.mc", []byte(`func f() { x = 1; }`), nil); err == nil {
		t.Error("type error not reported")
	}
}

// TestParseMode: ParseMode inverts Mode.String for the two product modes
// whatever the case, and names what it cannot parse: the single-bit arms
// are not product modes, and the retired names are gone.
func TestParseMode(t *testing.T) {
	for _, m := range []compiler.Mode{compiler.ModeStateless, compiler.ModeStateful} {
		for _, s := range []string{m.String(), strings.ToUpper(m.String())} {
			if got, err := compiler.ParseMode(s); err != nil || got != m {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, m)
			}
		}
	}
	for _, s := range []string{"fullcache", "records", "replay", "predictive"} {
		if _, err := compiler.ParseMode(s); err == nil || !strings.Contains(err.Error(), `unknown mode "`+s+`"`) {
			t.Errorf("ParseMode(%q): %v, want unknown mode", s, err)
		}
	}
}

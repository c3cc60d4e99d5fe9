package types

// Additional checker tests: the while-true return analysis, const-decl
// corner cases, and error recovery in partially broken programs.

import (
	"testing"

	"statefulcc/internal/source"
)

func TestWhileTrueReturns(t *testing.T) {
	// Accepted: infinite loop with internal return.
	mustCheck(t, `
func f(x int) int {
    while true {
        if x > 3 { return x; }
        x++;
    }
}`)
	// Accepted: plain infinite loop in an int function (never falls off).
	mustCheck(t, `
func f() int {
    while true { }
}`)
	// Rejected: break makes fall-through possible.
	wantError(t, `
func f(x int) int {
    while true {
        if x > 3 { break; }
        x++;
    }
}`, "missing return")
	// Accepted: the break is inside a NESTED loop and cannot exit the
	// outer while-true.
	mustCheck(t, `
func f(x int) int {
    while true {
        for var i int = 0; i < 3; i++ {
            if i == x { break; }
        }
        if x > 0 { return x; }
    }
}`)
	// Rejected: while with non-literal condition is conservative.
	wantError(t, `
func f(b bool) int {
    while b { return 1; }
}`, "missing return")
}

func TestConstCornerCases(t *testing.T) {
	// Consts may reference earlier consts, including unary forms.
	info := mustCheck(t, `
const A = 10;
const B = -A;
const C = ^A;
const D = A << 2;
func main() { print(B, C, D); }`)
	want := map[string]int64{"B": -10, "C": -11, "D": 40}
	syms := info.symbols()
	for name, v := range want {
		if sym := syms[name]; sym == nil || sym.Const != v {
			t.Errorf("%s = %+v, want const %d", name, sym, v)
		}
	}
	// Forward const references fail (single-pass top-level collection).
	wantError(t, `const X = Y; const Y = 1; func main() { }`, "constant")
	// Shift out of range refuses to fold at compile time.
	wantError(t, `const S = 1 << 64; func main() { }`, "constant")
}

func TestCheckerRecoversPerFunction(t *testing.T) {
	// An error in one function must not suppress checking of the next.
	_, errs := check(t, `
func bad() int { return doesnotexist; }
func alsobad() { var x bool = 3; }
func main() { }`)
	if errs.Len() < 2 {
		t.Errorf("expected independent errors per function, got %d: %v", errs.Len(), errs)
	}
}

func TestGlobalArrayRules(t *testing.T) {
	wantError(t, `var a [0]int; func main() { }`, "positive")
	wantError(t, `var a [4]int = 3; func main() { }`, "initializer")
	mustCheck(t, `var a [4]int; func main() { a[0] = 1; }`)
}

func TestVoidCallStatementOK(t *testing.T) {
	mustCheck(t, `
func log(x int) { print(x); }
func main() { log(3); }`)
	// A value-returning call used as a statement is allowed (result
	// discarded), matching C.
	mustCheck(t, `
func f() int { return 1; }
func main() { f(); }`)
}

func TestFunctionAsValueRejected(t *testing.T) {
	// Regression for a fuzzer-found frontend hole: using a function name
	// as a value (indexing, assigning, printing it) must be a checker
	// error, not an IR-builder panic.
	wantError(t, `func r() { r[0] = 0; }`, "function, not a value")
	wantError(t, `func f() int { return 0; } func g() { var x int = f; }`, "function, not a value")
	wantError(t, `func f() { } func g() { print(f); }`, "function, not a value")
	wantError(t, `extern func e() int; func g() int { return e + 1; }`, "function, not a value")
	// Calling remains fine.
	mustCheck(t, `func f() int { return 1; } func g() int { return f(); }`)
}

func TestUnreachableCodeWarning(t *testing.T) {
	wantWarn := func(src string) {
		t.Helper()
		info, errs := check(t, src)
		_ = info
		if errs.HasErrors() {
			t.Fatalf("unexpected errors: %v", errs)
		}
		found := false
		for _, d := range errs.Diags {
			if d.Severity == source.Warning && d.Message == "unreachable code" {
				found = true
			}
		}
		if !found {
			t.Errorf("no unreachable-code warning for %q (diags: %v)", src, errs)
		}
	}
	wantWarn(`func f() int { return 1; print(2); }`)
	wantWarn(`func f() { while true { break; print(1); } }`)
	wantWarn(`func f(x int) int { if x > 0 { return 1; } else { return 2; } x = 3; return x; }`)
	// No warning for normal code.
	info, errs := check(t, `func f(x int) int { if x > 0 { return 1; } return 2; }`)
	_ = info
	for _, d := range errs.Diags {
		if d.Severity == source.Warning {
			t.Errorf("spurious warning: %v", d)
		}
	}
}

func TestParamsAreAssignable(t *testing.T) {
	mustCheck(t, `func f(x int) int { x = x + 1; return x; }`)
	mustCheck(t, `func f(b bool) bool { b = !b; return b; }`)
}

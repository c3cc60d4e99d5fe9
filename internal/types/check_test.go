package types

import (
	"strings"
	"testing"

	"statefulcc/internal/ast"
	"statefulcc/internal/parser"
	"statefulcc/internal/source"
)

// checked is a checker result with the tree it is read by.
type checked struct {
	*Info
	tree *ast.File
}

// symbols collects, by name, the symbol of every declaring node of the tree
// (DefOf); a name declared twice keeps its last declaration.
func (c *checked) symbols() map[string]*Symbol {
	syms := map[string]*Symbol{}
	ast.Inspect(c.tree, func(n ast.Node) bool {
		if d, ok := n.(interface{ DeclID() int }); ok {
			if sym := c.DefOf(d); sym != nil {
				syms[sym.Name] = sym
			}
		}
		return true
	})
	return syms
}

func check(t *testing.T, src string) (*checked, *source.ErrorList) {
	t.Helper()
	var errs source.ErrorList
	file := source.NewFile("test.mc", []byte(src))
	tree := parser.ParseFile(file, &errs)
	if errs.HasErrors() {
		t.Fatalf("parse errors: %v", errs)
	}
	info := Check(file, tree, &errs)
	return &checked{Info: info, tree: tree}, &errs
}

func mustCheck(t *testing.T, src string) *checked {
	t.Helper()
	info, errs := check(t, src)
	if errs.HasErrors() {
		t.Fatalf("check errors: %v", errs)
	}
	return info
}

func wantError(t *testing.T, src, fragment string) {
	t.Helper()
	_, errs := check(t, src)
	if !errs.HasErrors() {
		t.Fatalf("expected error containing %q, got none", fragment)
	}
	if !strings.Contains(errs.Error(), fragment) {
		t.Fatalf("expected error containing %q, got: %v", fragment, errs)
	}
}

func TestValidProgram(t *testing.T) {
	mustCheck(t, `
const N = 4;
var g int = N * 2;
var arr [4]int;
extern func ext(x int) int;

func helper(a int, b bool) int {
    if b {
        return a;
    }
    return -a;
}

func main() {
    var i int = 0;
    while i < N {
        arr[i] = helper(ext(i), i % 2 == 0);
        i++;
    }
    print("done", arr[0], g);
    assert(arr[0] >= 0 || true);
}`)
}

func TestUndefined(t *testing.T) {
	wantError(t, `func f() { x = 1; }`, "undefined: x")
	wantError(t, `func f() { g(); }`, "undefined function: g")
}

func TestTypeMismatches(t *testing.T) {
	wantError(t, `func f() { var x int = true; }`, "cannot initialize")
	wantError(t, `func f() { var b bool; b = 3; }`, "cannot assign")
	wantError(t, `func f(x int) { if x { } }`, "condition must be bool")
	wantError(t, `func f() int { return true; }`, "cannot return")
	wantError(t, `func f(a bool, b bool) { var x int = a + b; }`, "requires int operands")
	wantError(t, `func f(a int) { var b bool = !a; }`, "requires bool")
	wantError(t, `func f(a int, b bool) { var c bool = a == b; }`, "matching scalar operands")
}

func TestCallChecking(t *testing.T) {
	base := `func g(a int, b bool) int { return a; } `
	wantError(t, base+`func f() { g(1); }`, "expects 2 arguments")
	wantError(t, base+`func f() { g(true, true); }`, "cannot use bool as int")
	wantError(t, base+`func f() { var x bool = g(1, true); }`, "cannot initialize")
	mustCheck(t, base+`func f() int { return g(1, true); }`)
}

func TestVoidMisuse(t *testing.T) {
	base := `func v() { } `
	wantError(t, base+`func f() { var x int = v(); }`, "cannot initialize")
	wantError(t, base+`func f() { return 3; }`, "returns no value")
}

func TestMissingReturn(t *testing.T) {
	wantError(t, `func f(x int) int { if x > 0 { return 1; } }`, "missing return")
	mustCheck(t, `func f(x int) int { if x > 0 { return 1; } else { return 2; } }`)
	mustCheck(t, `func f(x int) int { if x > 0 { return 1; } return 2; }`)
}

func TestBreakContinueOutsideLoop(t *testing.T) {
	wantError(t, `func f() { break; }`, "break outside loop")
	wantError(t, `func f() { continue; }`, "continue outside loop")
	mustCheck(t, `func f() { while true { break; continue; } }`)
}

func TestArrays(t *testing.T) {
	wantError(t, `func f() { var a [3]int; a = 1; }`, "cannot assign to array")
	wantError(t, `func f() { var a [3]int; var b bool = a[0] > 0; a[true] = 1; }`, "index must be int")
	wantError(t, `func f(x int) { x[0] = 1; }`, "indexing requires an array")
	wantError(t, `func f() { var a [3]int; a[5] = 1; }`, "out of bounds")
	wantError(t, `func f(a [3]int) { }`, "cannot be passed")
	mustCheck(t, `func f() int { var a [3]int; a[2] = 7; return a[2]; }`)
}

func TestConstEval(t *testing.T) {
	info := mustCheck(t, `
const A = 3;
const B = A * 4 + 1;
var g int = B - 1;
func main() { }`)
	syms := info.symbols()
	if bsym := syms["B"]; bsym == nil || bsym.Const != 13 {
		t.Fatalf("B = %+v, want const 13", bsym)
	}
	g := syms["g"]
	if g == nil || g.Kind != SymGlobal {
		t.Fatalf("g = %+v, want a global", g)
	}
	if v := info.GlobalInit(g.Decl.(*ast.VarDecl)); v != 12 {
		t.Errorf("g init = %d, want 12", v)
	}
}

func TestConstRules(t *testing.T) {
	wantError(t, `func f() int { return 1; } var g int = f();`, "must be a constant")
	wantError(t, `const C = 1; func f() { C = 2; }`, "cannot assign to constant")
	wantError(t, `var g int = 1/0;`, "must be a constant") // fold refuses div-by-zero
}

func TestRedeclaration(t *testing.T) {
	wantError(t, `func f() { } func f() { }`, "redeclared")
	wantError(t, `var x int; func x() { }`, "redeclared")
	wantError(t, `func f(a int, a int) { }`, "duplicate parameter")
	wantError(t, `func f() { var x int; var x int; }`, "redeclared in this scope")
	// Shadowing in a nested scope is allowed.
	mustCheck(t, `func f() { var x int; { var x bool; x = true; } x = 1; }`)
}

func TestScoping(t *testing.T) {
	wantError(t, `func f() { { var x int; } x = 1; }`, "undefined: x")
	// For-header variables are scoped to the loop.
	wantError(t, `func f() { for var i int = 0; i < 3; i++ { } i = 1; }`, "undefined: i")
}

func TestPrintAssert(t *testing.T) {
	mustCheck(t, `func f() { print("label", 1, true); print(42); print(); }`)
	wantError(t, `func f() { print(1, "label"); }`, "first print argument")
	wantError(t, `func f() { assert(1); }`, "condition must be bool")
	wantError(t, `func f() { assert(true, false); }`, "must be a string literal")
	mustCheck(t, `func f() { assert(true, "msg"); }`)
}

func TestStringOutsidePrint(t *testing.T) {
	wantError(t, `func f() { var x int = "s"; }`, "only allowed as the first argument")
}

func TestExprTypesRecorded(t *testing.T) {
	info := mustCheck(t, `func f(a int) bool { return a * 2 > 3; }`)
	counts := map[Kind]int{}
	exprs := 0
	ast.Inspect(info.tree, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			counts[info.TypeOf(e).Kind]++
			exprs++
		}
		return true
	})
	// a, 2, a * 2, 3 are int; the comparison is bool.
	if exprs != info.tree.NumExprs || counts[Int] != 4 || counts[Bool] != 1 {
		t.Errorf("expression types of %d/%d expressions: %v", exprs, info.tree.NumExprs, counts)
	}
}

func TestSignatureString(t *testing.T) {
	info := mustCheck(t, `func f(a int, b bool) int { return a; }`)
	f := info.symbols()["f"]
	if f == nil || f.Sig == nil {
		t.Fatalf("f = %+v, want a function symbol", f)
	}
	if got := f.Sig.String(); got != "func(int, bool) int" {
		t.Errorf("signature = %q", got)
	}
}

func TestTypeEquality(t *testing.T) {
	if !ArrayOf(3).Equal(ArrayOf(3)) {
		t.Error("equal array types not Equal")
	}
	if ArrayOf(3).Equal(ArrayOf(4)) {
		t.Error("different-length arrays Equal")
	}
	if IntType.Equal(BoolType) {
		t.Error("int equals bool")
	}
	if !IntType.IsScalar() || !BoolType.IsScalar() || ArrayOf(2).IsScalar() {
		t.Error("IsScalar misclassifies")
	}
}

func TestASTInspectCoverage(t *testing.T) {
	// Ensure every node kind is reachable by Inspect (guards against
	// traversal gaps that would hide nodes from tools).
	var errs source.ErrorList
	file := source.NewFile("t.mc", []byte(`
const C = 1;
var g int = 2;
var arr [2]int;
extern func e(x int) int;
func f(a int, b bool) int {
    var x int = -a;
    arr[0] = x;
    for var i int = 0; i < 2 && b; i++ { x += e(i); }
    while !b { b = true; break; }
    if b { x = 1; } else { x = (2); }
    print("x", x);
    assert(x != 0, "zero");
    return x;
}`))
	tree := parser.ParseFile(file, &errs)
	if errs.HasErrors() {
		t.Fatalf("parse: %v", errs)
	}
	seen := map[string]bool{}
	ast.Inspect(tree, func(n ast.Node) bool {
		seen[strings.TrimPrefix(typeOf(n), "*ast.")] = true
		return true
	})
	for _, want := range []string{
		"File", "FuncDecl", "ExternDecl", "VarDecl", "ConstDecl", "Param",
		"ScalarType", "ArrayType", "BlockStmt", "DeclStmt", "AssignStmt",
		"IfStmt", "WhileStmt", "ForStmt", "ReturnStmt", "BreakStmt",
		"ExprStmt", "IdentExpr", "IntLit", "BoolLit", "StringLit",
		"BinaryExpr", "UnaryExpr", "CallExpr", "IndexExpr", "ParenExpr",
	} {
		if !seen[want] {
			t.Errorf("Inspect never visited %s (saw %v)", want, seen)
		}
	}
}

func typeOf(n ast.Node) string {
	switch n.(type) {
	case *ast.File:
		return "*ast.File"
	case *ast.FuncDecl:
		return "*ast.FuncDecl"
	case *ast.ExternDecl:
		return "*ast.ExternDecl"
	case *ast.VarDecl:
		return "*ast.VarDecl"
	case *ast.ConstDecl:
		return "*ast.ConstDecl"
	case *ast.Param:
		return "*ast.Param"
	case *ast.ScalarType:
		return "*ast.ScalarType"
	case *ast.ArrayType:
		return "*ast.ArrayType"
	case *ast.BlockStmt:
		return "*ast.BlockStmt"
	case *ast.DeclStmt:
		return "*ast.DeclStmt"
	case *ast.AssignStmt:
		return "*ast.AssignStmt"
	case *ast.IfStmt:
		return "*ast.IfStmt"
	case *ast.WhileStmt:
		return "*ast.WhileStmt"
	case *ast.ForStmt:
		return "*ast.ForStmt"
	case *ast.ReturnStmt:
		return "*ast.ReturnStmt"
	case *ast.BreakStmt:
		return "*ast.BreakStmt"
	case *ast.ContinueStmt:
		return "*ast.ContinueStmt"
	case *ast.ExprStmt:
		return "*ast.ExprStmt"
	case *ast.IdentExpr:
		return "*ast.IdentExpr"
	case *ast.IntLit:
		return "*ast.IntLit"
	case *ast.BoolLit:
		return "*ast.BoolLit"
	case *ast.StringLit:
		return "*ast.StringLit"
	case *ast.BinaryExpr:
		return "*ast.BinaryExpr"
	case *ast.UnaryExpr:
		return "*ast.UnaryExpr"
	case *ast.CallExpr:
		return "*ast.CallExpr"
	case *ast.IndexExpr:
		return "*ast.IndexExpr"
	case *ast.ParenExpr:
		return "*ast.ParenExpr"
	default:
		return "unknown"
	}
}

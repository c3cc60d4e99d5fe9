package parser

import (
	"strings"
	"testing"

	"statefulcc/internal/ast"
	"statefulcc/internal/source"
	"statefulcc/internal/token"
)

func parse(t *testing.T, src string) (*ast.File, *source.ErrorList) {
	t.Helper()
	var errs source.ErrorList
	f := ParseSource("test.mc", src, &errs)
	return f, &errs
}

func mustParse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, errs := parse(t, src)
	if errs.HasErrors() {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func TestFuncDecl(t *testing.T) {
	f := mustParse(t, `
func add(a int, b int) int {
    return a + b;
}`)
	if len(f.Decls) != 1 {
		t.Fatalf("decls = %d, want 1", len(f.Decls))
	}
	fn, ok := f.Decls[0].(*ast.FuncDecl)
	if !ok {
		t.Fatalf("decl is %T, want FuncDecl", f.Decls[0])
	}
	if fn.Name != "add" || len(fn.Params) != 2 || fn.Result == nil {
		t.Errorf("bad FuncDecl: name=%s params=%d result=%v", fn.Name, len(fn.Params), fn.Result)
	}
}

func TestExternAndGlobals(t *testing.T) {
	f := mustParse(t, `
extern func helper(x int) int;
var counter int = 10;
var table [8]int;
const LIMIT = 100;
func main() { }
`)
	if len(f.Decls) != 5 {
		t.Fatalf("decls = %d, want 5", len(f.Decls))
	}
	if _, ok := f.Decls[0].(*ast.ExternDecl); !ok {
		t.Errorf("decl 0 is %T, want ExternDecl", f.Decls[0])
	}
	v1 := f.Decls[1].(*ast.VarDecl)
	if v1.Init == nil {
		t.Error("counter should have an initializer")
	}
	v2 := f.Decls[2].(*ast.VarDecl)
	at, ok := v2.Type.(*ast.ArrayType)
	if !ok || at.Len != 8 {
		t.Errorf("table type = %#v, want [8]int", v2.Type)
	}
	if _, ok := f.Decls[3].(*ast.ConstDecl); !ok {
		t.Errorf("decl 3 is %T, want ConstDecl", f.Decls[3])
	}
}

func TestPrecedence(t *testing.T) {
	var errs source.ErrorList
	e := ParseExpr("1 + 2 * 3", &errs)
	if errs.HasErrors() {
		t.Fatalf("errors: %v", errs)
	}
	b, ok := e.(*ast.BinaryExpr)
	if !ok || b.Op != token.ADD {
		t.Fatalf("root = %#v, want ADD", e)
	}
	rhs, ok := b.Y.(*ast.BinaryExpr)
	if !ok || rhs.Op != token.MUL {
		t.Fatalf("rhs = %#v, want MUL", b.Y)
	}
}

func TestPrecedenceTable(t *testing.T) {
	// Each case: src, expected top operator after parsing.
	cases := []struct {
		src string
		top token.Kind
	}{
		{"a || b && c", token.LOR},
		{"a && b == c", token.LAND},
		{"a == b < c", token.EQL},
		{"a < b + c", token.LSS},
		{"a + b << c", token.SHL}, // + binds tighter than <<
		{"a | b ^ c", token.OR},
		{"a ^ b & c", token.XOR},
		{"a & b == c", token.AND}, // == binds tighter than & (Go-style table)
	}
	for _, c := range cases {
		var errs source.ErrorList
		e := ParseExpr(c.src, &errs)
		if errs.HasErrors() {
			t.Errorf("%q: %v", c.src, errs)
			continue
		}
		b, ok := e.(*ast.BinaryExpr)
		if !ok {
			t.Errorf("%q: not a binary expr", c.src)
			continue
		}
		if b.Op != c.top {
			t.Errorf("%q: top op = %v, want %v", c.src, b.Op, c.top)
		}
	}
}

func TestLeftAssociativity(t *testing.T) {
	var errs source.ErrorList
	e := ParseExpr("a - b - c", &errs)
	b := e.(*ast.BinaryExpr)
	// (a-b)-c: left child is the inner subtraction.
	if _, ok := b.X.(*ast.BinaryExpr); !ok {
		t.Errorf("a-b-c parsed right-associatively")
	}
}

func TestStatements(t *testing.T) {
	f := mustParse(t, `
func f(n int) int {
    var s int = 0;
    var arr [4]int;
    arr[0] = 1;
    for var i int = 0; i < n; i += 1 {
        s += arr[i % 4];
        if s > 100 {
            break;
        } else if s < 0 {
            continue;
        }
    }
    while s > 10 {
        s = s / 2;
    }
    s++;
    s--;
    print("s", s);
    return s;
}`)
	fn := f.Decls[0].(*ast.FuncDecl)
	if len(fn.Body.Stmts) < 7 {
		t.Errorf("body stmts = %d, want >= 7", len(fn.Body.Stmts))
	}
}

func TestIncDecDesugar(t *testing.T) {
	f := mustParse(t, `func f() { var x int; x++; }`)
	fn := f.Decls[0].(*ast.FuncDecl)
	as, ok := fn.Body.Stmts[1].(*ast.AssignStmt)
	if !ok || as.Op != token.ADDASSIGN {
		t.Fatalf("x++ did not desugar to +=: %#v", fn.Body.Stmts[1])
	}
	lit, ok := as.Rhs.(*ast.IntLit)
	if !ok || lit.Value != 1 {
		t.Errorf("x++ rhs = %#v, want 1", as.Rhs)
	}
}

func TestErrorRecovery(t *testing.T) {
	f, errs := parse(t, `
func good1() { return; }
func bad( { }
func good2() { return; }
`)
	if !errs.HasErrors() {
		t.Fatal("expected parse errors")
	}
	// good2 must still be present despite the error in bad.
	found := false
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name == "good2" {
			found = true
		}
	}
	if !found {
		t.Error("parser did not recover to parse good2")
	}
}

func TestMultipleErrors(t *testing.T) {
	_, errs := parse(t, `
func a() { 1 +; }
func b() { return @; }
`)
	if errs.Len() < 2 {
		t.Errorf("expected at least 2 diagnostics, got %d: %v", errs.Len(), errs)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	src := `
const N = 16;
var total int = 0;
var buf [16]int;
extern func ext(x int) int;

func compute(a int, b bool) int {
    var x int = a * 2 + 1;
    if b && x > 3 || a == 0 {
        x = -x;
    }
    for var i int = 0; i < N; i++ {
        buf[i] = ext(x) % (i + 1);
        total += buf[i];
    }
    while x > 0 {
        x -= 3;
    }
    return x + total;
}

func main() {
    print("result", compute(5, true));
    assert(total >= 0, "total negative");
}
`
	f1 := mustParse(t, src)
	printed := ast.Print(f1)
	f2, errs := parse(t, printed)
	if errs.HasErrors() {
		t.Fatalf("printed source does not re-parse: %v\n--- printed ---\n%s", errs, printed)
	}
	printed2 := ast.Print(f2)
	if printed != printed2 {
		t.Errorf("print is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestParenPreserved(t *testing.T) {
	var errs source.ErrorList
	e := ParseExpr("(a + b) * c", &errs)
	if s := ast.PrintExpr(e); !strings.Contains(s, "(") {
		t.Errorf("parens lost: %s", s)
	}
}

func TestForHeaderVariants(t *testing.T) {
	srcs := []string{
		`func f() { for ;; { break; } }`,
		`func f() { for var i int = 0; ; i++ { break; } }`,
		`func f(n int) { for ; n > 0; { n--; } }`,
	}
	for _, src := range srcs {
		if _, errs := parse(t, src); errs.HasErrors() {
			t.Errorf("%q: %v", src, errs)
		}
	}
}

func TestDanglingElse(t *testing.T) {
	f := mustParse(t, `func f(a bool, b bool) { if a { } else if b { } else { } }`)
	fn := f.Decls[0].(*ast.FuncDecl)
	ifs := fn.Body.Stmts[0].(*ast.IfStmt)
	inner, ok := ifs.Else.(*ast.IfStmt)
	if !ok {
		t.Fatalf("else-if did not chain: %#v", ifs.Else)
	}
	if inner.Else == nil {
		t.Error("final else lost")
	}
}

// numbering checks that the parser gave every expression of the tree a
// number of its own below NumExprs and every declaring node one below
// NumDecls — what the checker's tables are indexed by.
func numbering(t *testing.T, f *ast.File) {
	t.Helper()
	exprs := make([]bool, f.NumExprs)
	decls := make([]bool, f.NumDecls)
	mark := func(seen []bool, id int, n ast.Node) {
		if id < 0 || id >= len(seen) {
			t.Fatalf("%T numbered %d, outside the file's %d", n, id, len(seen))
		}
		if seen[id] {
			t.Fatalf("%T shares number %d with another node", n, id)
		}
		seen[id] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			mark(exprs, e.ExprID(), n)
		}
		if d, ok := n.(interface{ DeclID() int }); ok {
			mark(decls, d.DeclID(), n)
		}
		return true
	})
}

const numberedSrc = `
const K = 3;
var g int = K * 2;
var arr [4]int;
extern func ext(x int, y bool) int;
func f(a int, b bool) int {
    var i int = 0;
    for var j int = 0; j < K; j++ { arr[j] = ext(a + j, !b) * (g - 1); i += arr[j]; }
    while i > 0 { i--; if i == 2 { break; } else { continue; } }
    print("label", i, true);
    return -i;
}
func main() { f(1, false); { var z int; z = 1; } }
`

func TestNodesAreNumbered(t *testing.T) {
	f := mustParse(t, numberedSrc)
	if f.NumExprs == 0 || f.NumDecls != 13 {
		t.Errorf("NumExprs %d, NumDecls %d (want 13 names: K g arr ext x y f a b i j main z)", f.NumExprs, f.NumDecls)
	}
	numbering(t, f)
	// Error recovery makes nodes of its own; they are numbered like the rest.
	for _, src := range []string{
		`func f() { x = ; y = 1 +; }`,
		`func f(a int b int) { (1)(2); f(1 2); }`,
		`var ; const = ; func () {}`,
	} {
		bad, errs := parse(t, src)
		if !errs.HasErrors() {
			t.Errorf("%q parsed without error", src)
		}
		numbering(t, bad)
	}
}

// TestScratchParsesLikeAFreshParser: one Scratch over a long file, a broken
// one and a short one gives each the tree a fresh parser gives it, and keeps
// nothing of a file once it is parsed.
func TestScratchParsesLikeAFreshParser(t *testing.T) {
	var s Scratch
	for _, src := range []string{numberedSrc + padFuncs(), `func f( { var x int = ; }`, `func g() int { return 1; }`, numberedSrc} {
		var errs, wantErrs source.ErrorList
		got := s.ParseFile(source.NewFile("t.mc", []byte(src)), &errs)
		want := ParseFile(source.NewFile("t.mc", []byte(src)), &wantErrs)
		if ast.Print(got) != ast.Print(want) || errs.Error() != wantErrs.Error() {
			t.Errorf("scratch parse differs from a fresh one on %q", src)
		}
		if got.NumExprs != want.NumExprs || got.NumDecls != want.NumDecls {
			t.Errorf("numbering differs: %d/%d exprs, %d/%d decls", got.NumExprs, want.NumExprs, got.NumDecls, want.NumDecls)
		}
		numbering(t, got)
		for _, tok := range s.tokBuf[:cap(s.tokBuf)] {
			if tok.Lit != "" {
				t.Fatalf("token buffer still holds %q", tok.Lit)
			}
		}
		if len(s.stmts)+len(s.exprs)+len(s.params)+len(s.decls) != 0 {
			t.Fatal("list stacks not empty after a parse")
		}
	}
}

// padFuncs makes the first file of the scratch test the longest.
func padFuncs() string {
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		sb.WriteString("func pad")
		sb.WriteByte(byte('a' + i))
		sb.WriteString("(a int, b int) int { return a * b + (a - b); }\n")
	}
	return sb.String()
}

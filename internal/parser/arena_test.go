package parser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"statefulcc/internal/ast"
	"statefulcc/internal/source"
)

// bigSrc is a file that fills several chunks of every kind the arena has:
// many functions, parameters, locals, loops, calls, unary and parenthesized
// expressions, and declaration and statement lists long enough to need
// chunks of their own.
func bigSrc() string {
	var b strings.Builder
	b.WriteString("var arr [8]int;\n")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "extern func e%d(a int, b bool) int;\n", i)
	}
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "func f%d(n int, m int) int {\n    var acc int = -n;\n", i)
		for j := 0; j < 12; j++ {
			fmt.Fprintf(&b, "    var v%d bool = !(acc < %d);\n", j, j)
			fmt.Fprintf(&b, "    if v%d { acc = acc + e%d(m, v%d) * (n - %d); } else { acc -= 1; }\n", j, j, j, j)
			fmt.Fprintf(&b, "    for var i%d int = 0; i%d < m; i%d++ { while acc > 0 { acc = acc / 2; arr[i%d %% 8] = acc; } }\n", j, j, j, j)
		}
		b.WriteString("    return acc;\n}\n")
	}
	return b.String()
}

// treeOf renders everything a later stage reads of a tree: its printed
// form, the numbers the parser gave its nodes and their bounds, and the
// diagnostics.
func treeOf(f *ast.File, errs *source.ErrorList) string {
	var b strings.Builder
	b.WriteString(ast.Print(f))
	fmt.Fprintf(&b, "\nexprs %d decls %d\n", f.NumExprs, f.NumDecls)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case ast.Expr:
			fmt.Fprintf(&b, "e%d ", n.ExprID())
		case interface{ DeclID() int }:
			fmt.Fprintf(&b, "d%d ", n.DeclID())
		}
		return true
	})
	fmt.Fprintf(&b, "\n%v", errs)
	return b.String()
}

// parseFresh parses src on a fresh scratch, as the package-level ParseFile
// does.
func parseFresh(name, src string) string {
	var errs source.ErrorList
	return treeOf(ParseFile(source.NewFile(name, []byte(src)), &errs), &errs)
}

// reuse parses a on s, then b, and returns what a later stage reads of b.
func reuse(s *Scratch, a, b string) string {
	var errsA, errsB source.ErrorList
	s.ParseFile(source.NewFile("a.mc", []byte(a)), &errsA)
	tree := s.ParseFile(source.NewFile("b.mc", []byte(b)), &errsB)
	return treeOf(tree, &errsB)
}

// zeroThroughCap reports, under path, every element of the slices in v (a
// struct of slices and counters, or one of its slices) that is set anywhere
// up to its slice's capacity, and every counter that is not zero.
func zeroThroughCap(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			zeroThroughCap(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice:
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			if e := full.Index(i); e.Kind() == reflect.Slice {
				zeroThroughCap(t, fmt.Sprintf("%s[%d]", path, i), e)
			} else if !e.IsZero() {
				t.Errorf("%s: element %d of %d is set", path, i, full.Len())
				return
			}
		}
	default:
		if !v.IsZero() {
			t.Errorf("%s is %v", path, v)
		}
	}
}

// TestReleasedArenaHoldsNoPointers: after a file that fills chunks of every
// kind, Release leaves the arena, the token buffer and the list stacks zero
// through their capacity — nothing of the tree stays reachable from an idle
// worker — and a second parse of the same file cuts every chunk the first
// one made and makes none.
func TestReleasedArenaHoldsNoPointers(t *testing.T) {
	var s Scratch
	var errs source.ErrorList
	src := bigSrc()
	tree := s.ParseFile(source.NewFile("big.mc", []byte(src)), &errs)
	if errs.HasErrors() {
		t.Fatal(&errs)
	}
	want := treeOf(tree, &errs)
	arena := reflect.ValueOf(&s.nodes).Elem()
	made := make([]int, arena.NumField())
	for i := range made {
		made[i] = arena.Field(i).FieldByName("made").Len()
		if made[i] < 2 && arena.Type().Field(i).Name != "declLists" {
			t.Errorf("%s: the file fills %d chunks; the test needs several of each", arena.Type().Field(i).Name, made[i])
		}
	}

	s.Release()
	zeroThroughCap(t, "arena", arena)
	zeroThroughCap(t, "tokens", reflect.ValueOf(s.tokBuf))
	zeroThroughCap(t, "stmts", reflect.ValueOf(s.stmts))
	zeroThroughCap(t, "exprs", reflect.ValueOf(s.exprs))
	zeroThroughCap(t, "params", reflect.ValueOf(s.params))
	zeroThroughCap(t, "decls", reflect.ValueOf(s.decls))

	var again source.ErrorList
	if got := treeOf(s.ParseFile(source.NewFile("big.mc", []byte(src)), &again), &again); got != want {
		t.Error("the second parse on a released arena differs from the first")
	}
	for i := range made {
		if got := arena.Field(i).FieldByName("made").Len(); got != made[i] {
			t.Errorf("%s: a file of the same shape grew the arena from %d to %d chunks", arena.Type().Field(i).Name, made[i], got)
		}
	}
	file := source.NewFile("big.mc", []byte(src))
	warm := testing.AllocsPerRun(5, func() { s.ParseFile(file, &again) })
	// The file node, the lexer and the one array type — the rare nodes are
	// allocated one by one — and nothing per token, name or hot node.
	if warm > 3 {
		t.Errorf("a warm scratch paid %.0f allocations for a file of %d expressions", warm, tree.NumExprs)
	}
}

// TestPackageTreeOutlivesWorkerParses: a tree from the package-level
// ParseFile is its caller's — a worker scratch that parses another file,
// and is released, leaves it as it was.
func TestPackageTreeOutlivesWorkerParses(t *testing.T) {
	src := "func keep(a int) int { var b int = a * 3; if b > 2 { return b - 1; } return -a; }\n"
	var errs source.ErrorList
	kept := ParseFile(source.NewFile("keep.mc", []byte(src)), &errs)
	want := treeOf(kept, &errs)

	var s Scratch
	for i := 0; i < 3; i++ {
		var other source.ErrorList
		s.ParseFile(source.NewFile("other.mc", []byte(bigSrc())), &other)
		s.Release()
	}
	if got := treeOf(kept, &errs); got != want {
		t.Errorf("a worker's parses changed a package-level tree\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// reuseSeeds are (a, b) pairs for FuzzScratchReuse: a larger file before a
// smaller one, files that stop mid-declaration, mid-expression and
// mid-list, and recovery paths that make nodes the clean parse does not.
var reuseSeeds = [][2]string{
	{bigSrc(), "func main() int { return 1; }"},
	{bigSrc()[:len(bigSrc())/2], "var g int = 3; func f(x int) int { return g + x; }"},
	{"func f(a int, b int) int { return (a + ", "func g() { var x [4]int; x[1] = 2; }"},
	{"func f() { if true { var x int = 1 +; } }", "const K = 1 << 3; extern func e(x int) int;"},
	{"extern func e(a int, b", bigSrc()},
	{"func r() { r[0] = 0; } func s(", "func s(a int) bool { return !(a < 2) && a != 3; }"},
	{"\x00\xff func while 0x", "func f() { }"},
}

// FuzzScratchReuse parses a on a worker's scratch and then b on the same
// scratch: b's tree — printed, numbered and diagnosed — must equal a parse
// of b on a fresh scratch, however much of the arena a filled and wherever
// it stopped.
func FuzzScratchReuse(f *testing.F) {
	for _, seed := range reuseSeeds {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 1<<16 || len(b) > 1<<16 {
			return
		}
		var s Scratch
		if got, want := reuse(&s, a, b), parseFresh("b.mc", b); got != want {
			t.Errorf("b parsed after a on one scratch differs from b on a fresh one\n--- got ---\n%s\n--- want ---\n%s", got, want)
		}
	})
}

package compiler

import (
	"os"
	"path/filepath"
	"testing"

	"statefulcc/internal/lexer"
	"statefulcc/internal/parser"
	"statefulcc/internal/source"
	"statefulcc/internal/token"
	"statefulcc/internal/workload"
)

// checkSplit holds split to the parser on src: it never panics, and when it
// does not decline on a file the parser reads without error, it has the
// parser's declarations — one each, in order, each from its first token
// through its last (a function's body from its opening brace) — so that a
// body it hands the lexer to pass over is the body the parser would read.
// It reports whether split declined.
func checkSplit(t *testing.T, src []byte) bool {
	t.Helper()
	decls, _, ok := split(src, nil, nil)
	if !ok {
		return true
	}
	var errs source.ErrorList
	file := source.NewFile("split.mc", src)
	tree := parser.ParseFile(file, &errs)
	if errs.HasErrors() {
		return false
	}
	if !agrees(tree, decls) {
		t.Fatalf("split %v disagrees with the parser's %d declarations\n%s", decls, len(tree.Decls), src)
	}
	// Each declaration ends with the last token before the next one.
	toks := lexer.New(file, nil).Tokenize()
	next := 0
	for k, d := range decls {
		limit := len(src)
		if k+1 < len(decls) {
			limit = int(decls[k+1].start)
		}
		for next+1 < len(toks) && int(toks[next+1].Pos) < limit && toks[next+1].Kind != token.EOF {
			next++
		}
		last := toks[next]
		if last.Kind != token.SEMICOLON && last.Kind != token.RBRACE || int(last.Pos)+1 != int(d.end) {
			t.Fatalf("declaration %d: split ends it at %d, its last token is %v at %d\n%s", k, d.end, last, last.Pos, src)
		}
		if !d.fn && d.body != d.end {
			t.Fatalf("declaration %d: a %v has a body at %d", k, tree.Decls[k].DeclName(), d.body)
		}
	}
	return false
}

// splitSeeds are the units of a suite project and the example programs,
// and the places a splitter that reads by counting braces goes wrong:
// braces, quotes and semicolons in comments and strings, escapes, comments
// that do not close, a closing brace too many, text between declarations.
func splitSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	snap := workload.Generate(workload.QuickSuite()[0])
	for _, unit := range snap.Units() {
		seeds = append(seeds, snap[unit])
	}
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mc"))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, src)
	}
	for _, s := range []string{
		"",
		"// only a comment",
		"func f() { /* } */ print(\"}\"); } func g() int { return 1; }",
		"func f() { print(\"a\\\"}\"); } // }\nvar x int = 1; /* ; */ const c = 2;",
		"func f() { print(\"x\n\"); }",
		"func f() { /*/ } */ }",
		"func f() { } }",
		"func f() { { }",
		"var x int = 1 extern func e(a int) int;",
		"x func f() { }",
		"funcf() { }",
		"extern func e(a int, b bool) int;\nfunc f(a int) int { return e(a, a < 2); }",
		"func f(a int) int { if a > 0 { return a / 2; } return a /* x */ / 3; }",
		"const c = \"{\"; func f() { }",
		"func f() int { return 1; } /* unterminated",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestSplitAgreesWithParser: split reads every unit of the megarepo and of
// a suite project, and the seeds above, the way the parser does — and
// declines on none of the generated units, which a resident builder would
// otherwise compile with nothing reused.
func TestSplitAgreesWithParser(t *testing.T) {
	for _, src := range splitSeeds(t) {
		checkSplit(t, src)
	}
	mega := workload.Generate(workload.MegaProfile())
	for _, unit := range mega.Units() {
		if checkSplit(t, mega[unit]) {
			t.Errorf("%s: split declined a generated unit", unit)
		}
	}
}

// FuzzSplit holds split to the parser's declaration ranges on any input:
// it agrees with them or declines. `make chaos` runs a burst.
func FuzzSplit(f *testing.F) {
	for _, src := range splitSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 16<<10 {
			return
		}
		checkSplit(t, src)
	})
}

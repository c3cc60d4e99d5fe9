package lexer

import (
	"strings"
	"testing"

	"statefulcc/internal/source"
	"statefulcc/internal/token"
)

func lex(t *testing.T, src string) ([]Token, *source.ErrorList) {
	t.Helper()
	var errs source.ErrorList
	l := New(source.NewFile("test.mc", []byte(src)), &errs)
	return l.Tokenize(), &errs
}

func kinds(toks []Token) []token.Kind {
	out := make([]token.Kind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	toks, errs := lex(t, "func main() { return 42; }")
	if errs.HasErrors() {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []token.Kind{
		token.FUNC, token.IDENT, token.LPAREN, token.RPAREN, token.LBRACE,
		token.RETURN, token.INT, token.SEMICOLON, token.RBRACE, token.EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	cases := map[string]token.Kind{
		"+": token.ADD, "-": token.SUB, "*": token.MUL, "/": token.QUO, "%": token.REM,
		"==": token.EQL, "!=": token.NEQ, "<": token.LSS, "<=": token.LEQ,
		">": token.GTR, ">=": token.GEQ, "&&": token.LAND, "||": token.LOR,
		"!": token.NOT, "<<": token.SHL, ">>": token.SHR, "&": token.AND,
		"|": token.OR, "^": token.XOR, "=": token.ASSIGN, "+=": token.ADDASSIGN,
		"-=": token.SUBASSIGN, "*=": token.MULASSIGN, "/=": token.QUOASSIGN,
		"%=": token.REMASSIGN, "++": token.INC, "--": token.DEC,
	}
	for src, want := range cases {
		toks, errs := lex(t, src)
		if errs.HasErrors() {
			t.Errorf("%q: unexpected error %v", src, errs)
			continue
		}
		if toks[0].Kind != want {
			t.Errorf("%q lexed as %v, want %v", src, toks[0].Kind, want)
		}
		if len(toks) != 2 {
			t.Errorf("%q produced %d tokens, want 2", src, len(toks))
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, errs := lex(t, "0 123 0x1F 0xdead")
	if errs.HasErrors() {
		t.Fatalf("unexpected errors: %v", errs)
	}
	wantLits := []string{"0", "123", "0x1F", "0xdead"}
	for i, w := range wantLits {
		if toks[i].Kind != token.INT || toks[i].Lit != w {
			t.Errorf("token %d = %v, want INT(%s)", i, toks[i], w)
		}
	}
}

func TestIdentVsKeyword(t *testing.T) {
	toks, _ := lex(t, "whilex while forloop for iff if")
	want := []token.Kind{token.IDENT, token.WHILE, token.IDENT, token.FOR, token.IDENT, token.IF, token.EOF}
	for i, w := range want {
		if toks[i].Kind != w {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, w)
		}
	}
}

// TestEveryKeywordIsScanned: the scanner asks the keyword table only about
// names made of lower-case letters, so every keyword must be one, and must
// come back as its own kind — next to names that differ by a digit, an
// underscore or a capital.
func TestEveryKeywordIsScanned(t *testing.T) {
	for word, kind := range token.Keywords {
		toks, errs := lex(t, word+" "+word+"1 _"+word+" "+strings.ToUpper(word[:1])+word[1:])
		if errs.HasErrors() {
			t.Fatalf("%s: %v", word, errs)
		}
		want := []token.Kind{kind, token.IDENT, token.IDENT, token.IDENT, token.EOF}
		if len(toks) != len(want) {
			t.Fatalf("%s: %d tokens, want %d", word, len(toks), len(want))
		}
		for i, w := range want {
			if toks[i].Kind != w {
				t.Errorf("%s: token %d = %v, want %v", word, i, toks[i].Kind, w)
			}
		}
	}
}

// TestTokenizeIntoReusesTheBuffer: the tokens of a second, shorter file
// overwrite the first's in the same memory and equal a fresh Tokenize.
func TestTokenizeIntoReusesTheBuffer(t *testing.T) {
	var errs source.ErrorList
	long := New(source.NewFile("a.mc", []byte("func f(a int) int { return a * 2 + 1; }")), &errs).TokenizeInto(nil, nil)
	src := "var x int = 3;"
	short := New(source.NewFile("b.mc", []byte(src)), &errs).TokenizeInto(long, nil)
	if &short[0] != &long[0] {
		t.Error("TokenizeInto allocated although the buffer was long enough")
	}
	want, _ := lex(t, src)
	if len(short) != len(want) {
		t.Fatalf("%d tokens, want %d", len(short), len(want))
	}
	for i := range want {
		if short[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, short[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	toks, errs := lex(t, "a // line comment\nb /* block\ncomment */ c")
	if errs.HasErrors() {
		t.Fatalf("unexpected errors: %v", errs)
	}
	var idents []string
	for _, tk := range toks {
		if tk.Kind == token.IDENT {
			idents = append(idents, tk.Lit)
		}
	}
	if strings.Join(idents, " ") != "a b c" {
		t.Errorf("idents = %v, want [a b c]", idents)
	}
}

func TestKeepComments(t *testing.T) {
	var errs source.ErrorList
	l := New(source.NewFile("t.mc", []byte("x // hi")), &errs, KeepComments())
	toks := l.Tokenize()
	found := false
	for _, tk := range toks {
		if tk.Kind == token.COMMENT {
			found = true
		}
	}
	if !found {
		t.Error("KeepComments did not emit a COMMENT token")
	}
}

func TestStringLiteral(t *testing.T) {
	toks, errs := lex(t, `"hello" "a\nb" "q\"q"`)
	if errs.HasErrors() {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []string{"hello", "a\nb", `q"q`}
	for i, w := range want {
		if toks[i].Kind != token.STRING || toks[i].Lit != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Lit, w)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"@",          // illegal char
		`"unclosed`,  // unterminated string
		"/* forever", // unterminated comment
		"123abc",     // ident starting with digit
		"0x",         // malformed hex
	}
	for _, src := range cases {
		_, errs := lex(t, src)
		if !errs.HasErrors() {
			t.Errorf("%q: expected a lex error", src)
		}
	}
}

func TestPositions(t *testing.T) {
	toks, _ := lex(t, "a\n  bb\n")
	f := source.NewFile("t.mc", []byte("a\n  bb\n"))
	posA := f.Position(toks[0].Pos)
	posB := f.Position(toks[1].Pos)
	if posA.Line != 1 || posA.Column != 1 {
		t.Errorf("a at %v, want 1:1", posA)
	}
	if posB.Line != 2 || posB.Column != 3 {
		t.Errorf("bb at %v, want 2:3", posB)
	}
}

func TestEOFIsSticky(t *testing.T) {
	var errs source.ErrorList
	l := New(source.NewFile("t.mc", []byte("x")), &errs)
	l.Next() // x
	for i := 0; i < 3; i++ {
		if tk := l.Next(); tk.Kind != token.EOF {
			t.Fatalf("Next after EOF = %v, want EOF", tk)
		}
	}
}

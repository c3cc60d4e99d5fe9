// Package lexer turns MiniC source bytes into a token stream.
//
// The scanner is a straightforward hand-written state machine over the raw
// byte slice: MiniC source is ASCII-only, so no UTF-8 decoding is needed.
// Comments use // and /* */; the latter may not nest.
package lexer

import (
	"statefulcc/internal/source"
	"statefulcc/internal/token"
)

// Token is one lexical token with its location and raw text.
type Token struct {
	Kind token.Kind
	Pos  source.Pos
	Lit  string // raw text for IDENT, INT, STRING, COMMENT and ILLEGAL
}

// String renders the token for test failures and debugging.
func (t Token) String() string {
	if t.Lit != "" && (t.Kind.IsLiteral() || t.Kind == token.ILLEGAL || t.Kind == token.COMMENT) {
		return t.Kind.String() + "(" + t.Lit + ")"
	}
	return t.Kind.String()
}

// Lexer scans one source file.
type Lexer struct {
	file   *source.File
	src    []byte
	offset int
	errs   *source.ErrorList
	// names interns identifier and number spellings; a lexer given none
	// makes its own.
	names *Names

	// keepComments controls whether COMMENT tokens are emitted or skipped;
	// the parser never wants them, but tools may.
	keepComments bool

	// skips are the ranges still to pass over (Skip).
	skips []Span
}

// Span is the byte range [Start, End) of a source.
type Span struct{ Start, End int }

// Skip makes the lexer pass over the given ranges of the source, which are
// sorted and disjoint, unread: where a token would start at a range's first
// byte, the lexer returns one BODY token there and goes on after the range.
// A range whose first byte is not where a token starts (it lies in a
// comment, or in another token) is lexed as usual. The lexer keeps spans
// until it has passed them.
func (l *Lexer) Skip(spans []Span) { l.skips = spans }

// Option configures a Lexer.
type Option func(*Lexer)

// KeepComments makes the lexer emit COMMENT tokens instead of skipping them.
func KeepComments() Option {
	return func(l *Lexer) { l.keepComments = true }
}

// New returns a lexer over the file, reporting problems to errs.
func New(file *source.File, errs *source.ErrorList, opts ...Option) *Lexer {
	l := &Lexer{file: file, src: file.Content, errs: errs}
	for _, o := range opts {
		o(l)
	}
	return l
}

// File returns the underlying source file.
func (l *Lexer) File() *source.File { return l.file }

func (l *Lexer) errorf(off int, format string, args ...any) {
	if l.errs != nil {
		l.errs.Errorf(l.file.Position(source.Pos(off)), format, args...)
	}
}

func (l *Lexer) peek() byte {
	if l.offset < len(l.src) {
		return l.src[l.offset]
	}
	return 0
}

func (l *Lexer) peekAt(n int) byte {
	if l.offset+n < len(l.src) {
		return l.src[l.offset+n]
	}
	return 0
}

func isLetter(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b == '_'
}

func isDigit(b byte) bool { return '0' <= b && b <= '9' }

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

// Next returns the next token. After EOF, it keeps returning EOF.
func (l *Lexer) Next() Token {
	for {
		l.skipSpace()
		start := l.offset
		for len(l.skips) > 0 && l.skips[0].Start < start {
			l.skips = l.skips[1:]
		}
		if len(l.skips) > 0 && l.skips[0].Start == start {
			l.offset = l.skips[0].End
			l.skips = l.skips[1:]
			return Token{Kind: token.BODY, Pos: source.Pos(start)}
		}
		if l.offset >= len(l.src) {
			return Token{Kind: token.EOF, Pos: source.Pos(start)}
		}
		b := l.src[l.offset]

		switch {
		case isLetter(b):
			return l.scanIdent(start)
		case isDigit(b):
			return l.scanNumber(start)
		case b == '"':
			return l.scanString(start)
		case b == '/' && (l.peekAt(1) == '/' || l.peekAt(1) == '*'):
			tok, ok := l.scanComment(start)
			if ok && l.keepComments {
				return tok
			}
			continue // comment skipped; rescan
		default:
			return l.scanOperator(start)
		}
	}
}

// Tokenize scans the whole file into a fresh slice, always ending with EOF.
func (l *Lexer) Tokenize() []Token { return l.TokenizeInto(nil, nil) }

// TokenizeInto is Tokenize into the caller's buffer: the tokens overwrite
// buf from its start and the filled slice comes back. A worker that lexes
// file after file keeps one buffer, clearing it between files so the last
// file's literal strings are not kept alive, and one Names table, which
// the spellings of identifiers and numbers come from (nil: a table of the
// lexer's own).
func (l *Lexer) TokenizeInto(buf []Token, names *Names) []Token {
	l.names = names
	// MiniC source runs at four to five bytes a token (operators, short
	// names, indentation), so a buffer of a quarter of the remaining bytes
	// nearly always holds the file; a shorter one is replaced at once rather
	// than grown by doubling on the way, and denser code grows it once.
	if want := (len(l.src)-l.offset)/4 + 16; cap(buf) < want {
		buf = make([]Token, 0, want)
	}
	toks := buf[:0]
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

func (l *Lexer) skipSpace() {
	for l.offset < len(l.src) && isSpace(l.src[l.offset]) {
		l.offset++
	}
}

func (l *Lexer) scanIdent(start int) Token {
	// Keywords are all lower-case letters, so a name with a digit, an
	// underscore or a capital is known to be one without a lookup; the
	// lookup reads the bytes in place, and only a name is copied out.
	lower := true
	for l.offset < len(l.src) && (isLetter(l.src[l.offset]) || isDigit(l.src[l.offset])) {
		if b := l.src[l.offset]; b < 'a' || b > 'z' {
			lower = false
		}
		l.offset++
	}
	if lower {
		if kind := token.Lookup(string(l.src[start:l.offset])); kind != token.IDENT {
			return Token{Kind: kind, Pos: source.Pos(start)}
		}
	}
	return Token{Kind: token.IDENT, Pos: source.Pos(start), Lit: l.spelling(start)}
}

// spelling returns the source text from start to the current offset, from
// the lexer's intern table.
func (l *Lexer) spelling(start int) string {
	if l.names == nil {
		l.names = new(Names)
	}
	return l.names.intern(l.src[start:l.offset])
}

// Names is an intern table of the identifier and number spellings a worker
// has lexed: a name used a hundred times in a file, or in every file, is one
// string. The strings are ordinary immutable heap strings and may outlive
// any file (they become IR symbol and global names); the table only saves
// making them again. One table per worker, never two goroutines on one; the
// zero value is ready.
type Names struct{ m map[string]string }

// maxNames bounds a table: when it is full it starts over, so a worker that
// lexes a large project keeps the spellings of the last few thousand names,
// not all of them (the megarepo's 208 units spell 14 555).
const maxNames = 1 << 12

func (n *Names) intern(b []byte) string {
	if s, ok := n.m[string(b)]; ok {
		return s
	}
	if n.m == nil {
		n.m = make(map[string]string)
	} else if len(n.m) >= maxNames {
		clear(n.m)
	}
	s := string(b)
	n.m[s] = s
	return s
}

func (l *Lexer) scanNumber(start int) Token {
	// Hex literal?
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.offset += 2
		n := 0
		for l.offset < len(l.src) && isHexDigit(l.src[l.offset]) {
			l.offset++
			n++
		}
		if n == 0 {
			l.errorf(start, "malformed hex literal")
			return Token{Kind: token.ILLEGAL, Pos: source.Pos(start), Lit: string(l.src[start:l.offset])}
		}
		return Token{Kind: token.INT, Pos: source.Pos(start), Lit: l.spelling(start)}
	}
	for l.offset < len(l.src) && isDigit(l.src[l.offset]) {
		l.offset++
	}
	if l.offset < len(l.src) && isLetter(l.src[l.offset]) {
		// 123abc is a single illegal token rather than INT IDENT.
		for l.offset < len(l.src) && (isLetter(l.src[l.offset]) || isDigit(l.src[l.offset])) {
			l.offset++
		}
		l.errorf(start, "identifier may not start with a digit")
		return Token{Kind: token.ILLEGAL, Pos: source.Pos(start), Lit: string(l.src[start:l.offset])}
	}
	return Token{Kind: token.INT, Pos: source.Pos(start), Lit: l.spelling(start)}
}

func isHexDigit(b byte) bool {
	return isDigit(b) || 'a' <= b && b <= 'f' || 'A' <= b && b <= 'F'
}

func (l *Lexer) scanString(start int) Token {
	l.offset++ // opening quote
	for l.offset < len(l.src) {
		b := l.src[l.offset]
		if b == '"' {
			l.offset++
			// Lit excludes the quotes; MiniC strings have no escapes beyond \n and \\.
			return Token{Kind: token.STRING, Pos: source.Pos(start), Lit: unescape(string(l.src[start+1 : l.offset-1]))}
		}
		if b == '\\' && l.offset+1 < len(l.src) {
			l.offset++ // skip escaped char
		}
		if b == '\n' {
			break
		}
		l.offset++
	}
	l.errorf(start, "unterminated string literal")
	return Token{Kind: token.ILLEGAL, Pos: source.Pos(start), Lit: string(l.src[start:l.offset])}
}

func unescape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case '\\':
				out = append(out, '\\')
			case '"':
				out = append(out, '"')
			default:
				out = append(out, '\\', s[i])
			}
			continue
		}
		out = append(out, s[i])
	}
	return string(out)
}

func (l *Lexer) scanComment(start int) (Token, bool) {
	if l.peekAt(1) == '/' {
		for l.offset < len(l.src) && l.src[l.offset] != '\n' {
			l.offset++
		}
		return Token{Kind: token.COMMENT, Pos: source.Pos(start), Lit: string(l.src[start:l.offset])}, true
	}
	// Block comment.
	l.offset += 2
	for l.offset+1 < len(l.src) {
		if l.src[l.offset] == '*' && l.src[l.offset+1] == '/' {
			l.offset += 2
			return Token{Kind: token.COMMENT, Pos: source.Pos(start), Lit: string(l.src[start:l.offset])}, true
		}
		l.offset++
	}
	l.offset = len(l.src)
	l.errorf(start, "unterminated block comment")
	return Token{Kind: token.ILLEGAL, Pos: source.Pos(start), Lit: string(l.src[start:l.offset])}, false
}

// twoCharOps maps a leading byte to its possible two-character operators.
type twoChar struct {
	second byte
	kind   token.Kind
}

var twoCharOps = [256][]twoChar{
	'+': {{'+', token.INC}, {'=', token.ADDASSIGN}},
	'-': {{'-', token.DEC}, {'=', token.SUBASSIGN}},
	'*': {{'=', token.MULASSIGN}},
	'/': {{'=', token.QUOASSIGN}},
	'%': {{'=', token.REMASSIGN}},
	'=': {{'=', token.EQL}},
	'!': {{'=', token.NEQ}},
	'<': {{'=', token.LEQ}, {'<', token.SHL}},
	'>': {{'=', token.GEQ}, {'>', token.SHR}},
	'&': {{'&', token.LAND}},
	'|': {{'|', token.LOR}},
}

var oneCharOps = [256]token.Kind{
	'+': token.ADD, '-': token.SUB, '*': token.MUL, '/': token.QUO, '%': token.REM,
	'&': token.AND, '|': token.OR, '^': token.XOR,
	'=': token.ASSIGN, '!': token.NOT, '<': token.LSS, '>': token.GTR,
	'(': token.LPAREN, ')': token.RPAREN, '{': token.LBRACE, '}': token.RBRACE,
	'[': token.LBRACK, ']': token.RBRACK, ',': token.COMMA, ';': token.SEMICOLON,
	':': token.COLON,
}

func (l *Lexer) scanOperator(start int) Token {
	b := l.src[l.offset]
	if cands := twoCharOps[b]; cands != nil {
		next := l.peekAt(1)
		for _, c := range cands {
			if next == c.second {
				l.offset += 2
				return Token{Kind: c.kind, Pos: source.Pos(start)}
			}
		}
	}
	if k := oneCharOps[b]; k != token.ILLEGAL {
		l.offset++
		return Token{Kind: k, Pos: source.Pos(start)}
	}
	l.offset++
	l.errorf(start, "illegal character %q", string(b))
	return Token{Kind: token.ILLEGAL, Pos: source.Pos(start), Lit: string(b)}
}

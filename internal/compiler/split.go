package compiler

import (
	"math"

	"statefulcc/internal/core"
	"statefulcc/internal/ir"
)

// decl is one top-level declaration of a unit's source: its bytes are
// start to end, and a function's body is body to end (body is end for the
// other declarations).
type decl struct {
	start, body, end int32
	fn               bool
}

// header returns the bytes of d's header in src: a function's up to its
// body, another declaration's whole.
func (d decl) header(src []byte) []byte { return src[d.start:d.body] }

// split cuts src at depth 0 into its top-level declarations, returned in
// decls with their keys under seed in keys (both reused from their start): a function
// from its keyword through its body's closing brace, an extern, a global or
// a constant from its keyword through its semicolon. It reads comments and
// string literals as the lexer does, and nothing else: it declines (false)
// on whatever it cannot place — a byte at depth 0 that starts no
// declaration, an unterminated comment, string or body, a brace in a
// declaration that has none — so that what it returns for a file the parser
// accepts has the parser's declaration ranges (FuzzSplit holds it to that).
func split(src []byte, decls []decl, keys []core.DeclKey, seed ir.KeySeed) ([]decl, []core.DeclKey, bool) {
	decls, keys = decls[:0], keys[:0]
	if len(src) >= math.MaxInt32 {
		return decls, keys, false
	}
	i := 0
	for {
		var ok bool
		if i, ok = skipGap(src, i); !ok {
			return decls, keys, false
		}
		if i == len(src) {
			return decls, keys, true
		}
		d, ok := scanDecl(src, i)
		if !ok {
			return decls, keys, false
		}
		decls, keys = append(decls, d), append(keys, keyOf(src, d, seed))
		i = int(d.end)
	}
}

// keyOf returns the key of d, a declaration of src, under the seed of the
// unit's memo.
func keyOf(src []byte, d decl, seed ir.KeySeed) core.DeclKey {
	k := core.DeclKey{Head: seed.Sum(d.header(src)), HeadLen: d.body - d.start, Func: d.fn}
	if d.fn {
		k.Body, k.BodyLen = seed.Sum(src[d.body:d.end]), d.end-d.body
	}
	return k
}

// scanDecl reads the declaration that starts at i byte by byte.
func scanDecl(src []byte, i int) (decl, bool) {
	d := decl{start: int32(i)}
	var ok bool
	switch word(src, i) {
	case "func":
		d.fn = true
		if i, ok = scanTo(src, i, '{'); !ok {
			return d, false
		}
		d.body = int32(i)
		if i, ok = scanBody(src, i); !ok {
			return d, false
		}
	case "extern", "var", "const":
		if i, ok = scanTo(src, i, ';'); !ok {
			return d, false
		}
		i++
		d.body = int32(i)
	default:
		return d, false
	}
	d.end = int32(i)
	return d, true
}

// word reports the declaration keyword at i: "func", one of the other
// three, or "" for anything else.
func word(src []byte, i int) string {
	j := i
	for j < len(src) && isIdentByte(src[j]) {
		j++
	}
	switch string(src[i:j]) {
	case "func":
		return "func"
	case "extern":
		return "extern"
	case "var":
		return "var"
	case "const":
		return "const"
	}
	return ""
}

func isIdentByte(b byte) bool {
	return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || '0' <= b && b <= '9' || b == '_'
}

// skipGap returns the offset of the first byte from i on that is neither
// white space nor in a comment; false for an unterminated block comment.
func skipGap(src []byte, i int) (int, bool) {
	for i < len(src) {
		switch b := src[i]; {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			i++
		case b == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case b == '/' && i+1 < len(src) && src[i+1] == '*':
			// The lexer looks for the end from the third byte on, so "/*/"
			// opens a comment and does not close it.
			j := i + 2
			for j+1 < len(src) && !(src[j] == '*' && src[j+1] == '/') {
				j++
			}
			if j+1 >= len(src) {
				return i, false
			}
			i = j + 2
		default:
			return i, true
		}
	}
	return i, true
}

// skipString returns the offset just past the string literal whose opening
// quote is at i; false when the lexer would call it unterminated.
func skipString(src []byte, i int) (int, bool) {
	for i++; i < len(src); i++ {
		switch src[i] {
		case '"':
			return i + 1, true
		case '\\':
			if i+1 < len(src) {
				i++
			}
		case '\n':
			return i, false
		}
	}
	return i, false
}

// scanTo returns the offset of the first stop byte at depth 0 after the
// keyword at i; false at the end of the file, at a brace other than stop,
// or at a string that does not end.
func scanTo(src []byte, i int, stop byte) (int, bool) {
	var ok bool
	for i++; ; i++ {
		if i, ok = skipGap(src, i); !ok || i == len(src) {
			return i, false
		}
		switch b := src[i]; b {
		case stop:
			return i, true
		case '{', '}', ';':
			return i, false
		case '"':
			if i, ok = skipString(src, i); !ok {
				return i, false
			}
			i--
		}
	}
}

// scanBody returns the offset just past the brace that closes the one at i.
func scanBody(src []byte, i int) (int, bool) {
	depth := 0
	for i < len(src) {
		// Most of a body is bytes that mean nothing to the split.
		if !bodySpecial[src[i]] {
			i++
			continue
		}
		switch src[i] {
		case '{':
			depth++
			i++
		case '}':
			i++
			if depth--; depth == 0 {
				return i, true
			}
		case '"':
			var ok bool
			if i, ok = skipString(src, i); !ok {
				return i, false
			}
		case '/':
			if i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*') {
				var ok bool
				if i, ok = skipGap(src, i); !ok {
					return i, false
				}
			} else {
				i++
			}
		}
	}
	return i, false
}

// bodySpecial marks the bytes scanBody stops at.
var bodySpecial = [256]bool{'{': true, '}': true, '"': true, '/': true}

// Package token defines the lexical token kinds of the MiniC language and
// the operator-precedence table shared by the lexer and parser.
package token

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds. The blocks are delimited by the *_beg/*_end markers so that
// classification predicates stay O(1).
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	literalBeg
	IDENT  // foo
	INT    // 123
	STRING // "abc" (only in print statements / asserts messages)
	literalEnd

	operatorBeg
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND // &
	OR  // |
	XOR // ^
	SHL // <<
	SHR // >>

	LAND // &&
	LOR  // ||
	NOT  // !

	EQL // ==
	NEQ // !=
	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=

	ASSIGN    // =
	ADDASSIGN // +=
	SUBASSIGN // -=
	MULASSIGN // *=
	QUOASSIGN // /=
	REMASSIGN // %=
	INC       // ++
	DEC       // --
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACK    // [
	RBRACK    // ]
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	operatorEnd

	keywordBeg
	FUNC
	VAR
	CONST
	IF
	ELSE
	WHILE
	FOR
	RETURN
	BREAK
	CONTINUE
	TRUE
	FALSE
	EXTERN
	INTTYPE  // int
	BOOLTYPE // bool
	keywordEnd

	// BODY stands for a function body the lexer passed over unread, by
	// offset, when the caller asked it to (lexer.Lexer.Skip): the compiler
	// reuses that function's lowered body from its last compile.
	BODY
)

var names = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	COMMENT:   "COMMENT",
	IDENT:     "IDENT",
	INT:       "INT",
	STRING:    "STRING",
	ADD:       "+",
	SUB:       "-",
	MUL:       "*",
	QUO:       "/",
	REM:       "%",
	AND:       "&",
	OR:        "|",
	XOR:       "^",
	SHL:       "<<",
	SHR:       ">>",
	LAND:      "&&",
	LOR:       "||",
	NOT:       "!",
	EQL:       "==",
	NEQ:       "!=",
	LSS:       "<",
	LEQ:       "<=",
	GTR:       ">",
	GEQ:       ">=",
	ASSIGN:    "=",
	ADDASSIGN: "+=",
	SUBASSIGN: "-=",
	MULASSIGN: "*=",
	QUOASSIGN: "/=",
	REMASSIGN: "%=",
	INC:       "++",
	DEC:       "--",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	LBRACK:    "[",
	RBRACK:    "]",
	COMMA:     ",",
	SEMICOLON: ";",
	COLON:     ":",
	FUNC:      "func",
	VAR:       "var",
	CONST:     "const",
	IF:        "if",
	ELSE:      "else",
	WHILE:     "while",
	FOR:       "for",
	RETURN:    "return",
	BREAK:     "break",
	CONTINUE:  "continue",
	TRUE:      "true",
	FALSE:     "false",
	EXTERN:    "extern",
	INTTYPE:   "int",
	BOOLTYPE:  "bool",
	BODY:      "BODY",
}

// String returns the token's source spelling for operators and keywords,
// and a symbolic name for the other classes.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// IsLiteral reports whether k names a literal class.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsOperator reports whether k is an operator or delimiter.
func (k Kind) IsOperator() bool { return operatorBeg < k && k < operatorEnd }

// IsKeyword reports whether k is a reserved word.
func (k Kind) IsKeyword() bool { return keywordBeg < k && k < keywordEnd }

// Keywords maps reserved spellings to their kinds.
var Keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[names[k]] = k
	}
	return m
}()

// Lookup returns the keyword kind for ident, or IDENT.
func Lookup(ident string) Kind {
	if k, ok := Keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Precedence levels for binary operators, following C conventions.
// Higher binds tighter. Non-binary tokens return 0.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case OR:
		return 3
	case XOR:
		return 4
	case AND:
		return 5
	case EQL, NEQ:
		return 6
	case LSS, LEQ, GTR, GEQ:
		return 7
	case SHL, SHR:
		return 8
	case ADD, SUB:
		return 9
	case MUL, QUO, REM:
		return 10
	}
	return 0
}

// MaxPrecedence is the highest binary precedence level.
const MaxPrecedence = 10

// CompoundAssignOp returns the underlying binary operator of a compound
// assignment token (+= → +), and ok=false for plain "=" or non-assignments.
func (k Kind) CompoundAssignOp() (Kind, bool) {
	switch k {
	case ADDASSIGN:
		return ADD, true
	case SUBASSIGN:
		return SUB, true
	case MULASSIGN:
		return MUL, true
	case QUOASSIGN:
		return QUO, true
	case REMASSIGN:
		return REM, true
	}
	return ILLEGAL, false
}

// IsAssignOp reports whether k is "=" or any compound assignment.
func (k Kind) IsAssignOp() bool {
	if k == ASSIGN {
		return true
	}
	_, ok := k.CompoundAssignOp()
	return ok
}

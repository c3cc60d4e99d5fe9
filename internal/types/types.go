// Package types implements MiniC's type system and semantic checker.
//
// The type language is tiny — int, bool, fixed-size int arrays, and void
// function results — but the checker does everything a real frontend does:
// scoped symbol resolution, lvalue/rvalue discipline, call-signature
// checking, constant-expression evaluation for globals and const
// declarations, and a conservative all-paths-return analysis. The result is
// an Info side table that the IR builder consumes, leaving the AST untouched.
package types

import (
	"fmt"

	"statefulcc/internal/ast"
)

// Kind classifies a Type.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Int
	Bool
	Array
	Void
)

// Type describes a MiniC type. Types are compared with Equal rather than
// pointer identity; scalar types are interned in the package-level
// singletons.
type Type struct {
	Kind Kind
	Len  int64 // array length when Kind == Array
}

// Interned scalar types.
var (
	IntType     = &Type{Kind: Int}
	BoolType    = &Type{Kind: Bool}
	VoidType    = &Type{Kind: Void}
	InvalidType = &Type{Kind: Invalid}
)

// ArrayOf returns the type [n]int.
func ArrayOf(n int64) *Type { return &Type{Kind: Array, Len: n} }

// String renders the type in source syntax.
func (t *Type) String() string {
	switch t.Kind {
	case Int:
		return "int"
	case Bool:
		return "bool"
	case Array:
		return fmt.Sprintf("[%d]int", t.Len)
	case Void:
		return "void"
	default:
		return "invalid"
	}
}

// Equal reports structural type equality.
func (t *Type) Equal(u *Type) bool {
	return t.Kind == u.Kind && (t.Kind != Array || t.Len == u.Len)
}

// IsScalar reports whether t is int or bool (a value that fits a register).
func (t *Type) IsScalar() bool { return t.Kind == Int || t.Kind == Bool }

// Signature is a function type.
type Signature struct {
	Params []*Type
	Result *Type // VoidType for no result
}

// String renders "func(int, bool) int".
func (s *Signature) String() string {
	out := "func("
	for i, p := range s.Params {
		if i > 0 {
			out += ", "
		}
		out += p.String()
	}
	out += ")"
	if s.Result.Kind != Void {
		out += " " + s.Result.String()
	}
	return out
}

// Equal reports signature equality.
func (s *Signature) Equal(o *Signature) bool {
	if len(s.Params) != len(o.Params) || !s.Result.Equal(o.Result) {
		return false
	}
	for i := range s.Params {
		if !s.Params[i].Equal(o.Params[i]) {
			return false
		}
	}
	return true
}

// SymbolKind classifies a resolved name.
type SymbolKind int

// Symbol kinds.
const (
	SymLocal SymbolKind = iota
	SymParam
	SymGlobal
	SymFunc
	SymExtern
	SymConst
	SymBuiltin
)

// String returns the symbol kind name.
func (k SymbolKind) String() string {
	switch k {
	case SymLocal:
		return "local"
	case SymParam:
		return "param"
	case SymGlobal:
		return "global"
	case SymFunc:
		return "func"
	case SymExtern:
		return "extern"
	case SymConst:
		return "const"
	case SymBuiltin:
		return "builtin"
	default:
		return "symbol"
	}
}

// Symbol is a resolved declaration.
type Symbol struct {
	Kind  SymbolKind
	Name  string
	Type  *Type      // value type (nil for functions)
	Sig   *Signature // for SymFunc/SymExtern/SymBuiltin
	Const int64      // value for SymConst
	Decl  ast.Node   // declaring node (nil for builtins)
}

// Builtin function names recognized by the checker and lowered specially.
const (
	BuiltinPrint  = "print"
	BuiltinAssert = "assert"
)

// Info is the checker's output: side tables indexed by the numbers the
// parser gave the file's expressions and declaring nodes (ast.ExprNode,
// ast.DeclNode), read through the accessors below.
type Info struct {
	// Funcs lists the function declarations in source order: the checked
	// ones and those whose body the parser passed over (a nil Body), whose
	// bodies are not checked.
	Funcs []*ast.FuncDecl
	// Globals lists global variable symbols in source order.
	Globals []*Symbol

	exprs []exprInfo // by expression number
	defs  []*Symbol  // by declaration number
	// globalInits holds a global's constant initializer value at the number
	// of its VarDecl.
	globalInits []int64
}

// exprInfo is what the checker found out about one expression.
type exprInfo struct {
	typ *Type   // nil when the expression was never checked
	sym *Symbol // the symbol an identifier resolved to
	// val is the expression's value when the checker folded it (const-decl
	// references and literal arithmetic), isConst says that it did.
	val     int64
	isConst bool
}

// TypeOf returns the checked type of e, or InvalidType.
func (info *Info) TypeOf(e ast.Expr) *Type {
	if t := info.exprs[e.ExprID()].typ; t != nil {
		return t
	}
	return InvalidType
}

// SymbolOf returns the symbol an identifier resolves to, or nil.
func (info *Info) SymbolOf(e *ast.IdentExpr) *Symbol { return info.exprs[e.ID].sym }

// ConstVal returns the value of an expression the checker folded to a
// constant.
func (info *Info) ConstVal(e ast.Expr) (int64, bool) {
	x := &info.exprs[e.ExprID()]
	return x.val, x.isConst
}

// DefOf returns the symbol a declaring node (a declaration or a parameter)
// introduced, or nil when the checker rejected it.
func (info *Info) DefOf(d interface{ DeclID() int }) *Symbol { return info.defs[d.DeclID()] }

// GlobalInit returns the constant initializer value of a global (0 without
// an initializer).
func (info *Info) GlobalInit(d *ast.VarDecl) int64 { return info.globalInits[d.ID] }

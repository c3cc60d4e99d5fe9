// Package ast defines the abstract syntax tree of the MiniC language.
//
// The grammar is deliberately C-like: a file is a sequence of declarations
// (functions, global variables, constants, and extern function prototypes);
// statements and expressions follow C with Go-flavoured spelling. Every
// node carries its source position for diagnostics.
//
// Who owns a tree depends on who parsed it. The parser cuts the nodes and
// the lists between them from the chunks of a parser.Scratch. A compile
// worker reuses its scratch from file to file: such a tree is valid until
// the scratch's next ParseFile or Release, after which its nodes are zero
// or belong to another file. The package-level parser.ParseFile parses on
// a fresh scratch that nobody releases, so its tree is the caller's, like
// any heap value. The strings in a tree are ordinary heap strings either
// way and may be kept.
package ast

import (
	"statefulcc/internal/source"
	"statefulcc/internal/token"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() source.Pos
}

// ---------------------------------------------------------------------------
// Types (syntactic type expressions)

// TypeExpr is a syntactic type: int, bool, or [N]int.
type TypeExpr interface {
	Node
	typeExpr()
}

// ScalarType is "int" or "bool".
type ScalarType struct {
	TokPos source.Pos
	Kind   token.Kind // token.INTTYPE or token.BOOLTYPE
}

// ArrayType is "[N]int" — fixed-size arrays of int.
type ArrayType struct {
	LbrackPos source.Pos
	Len       int64
	Elem      *ScalarType
}

func (t *ScalarType) Pos() source.Pos { return t.TokPos }
func (t *ArrayType) Pos() source.Pos  { return t.LbrackPos }
func (*ScalarType) typeExpr()         {}
func (*ArrayType) typeExpr()          {}

// ---------------------------------------------------------------------------
// Declarations

// File is one parsed compilation unit.
type File struct {
	Name  string
	Decls []Decl
	// NumExprs and NumDecls bound the numbers the parser gave this file's
	// expressions (ExprNode.ID) and declaring nodes (DeclNode.ID): side
	// tables over the file are slices of these lengths.
	NumExprs, NumDecls int
}

// Pos returns the position of the first declaration, or NoPos when empty.
func (f *File) Pos() source.Pos {
	if len(f.Decls) > 0 {
		return f.Decls[0].Pos()
	}
	return source.NoPos
}

// Decl is a top-level declaration.
type Decl interface {
	Node
	decl()
	// DeclName returns the declared identifier.
	DeclName() string
}

// DeclNode is embedded in every node that declares a name — the four
// declarations and Param. ID numbers them within their file, 0 to
// File.NumDecls-1, so a checker's per-declaration results sit in a slice
// instead of a map keyed by node. The parser assigns it; a tree built by
// hand leaves it zero and cannot be type-checked before it is printed and
// parsed.
type DeclNode struct{ ID int32 }

// DeclID returns the node's number within its file.
func (n *DeclNode) DeclID() int { return int(n.ID) }

// Param is one function parameter.
type Param struct {
	DeclNode
	NamePos source.Pos
	Name    string
	Type    TypeExpr
}

func (p *Param) Pos() source.Pos { return p.NamePos }

// FuncDecl is "func name(params) ret? { body }".
type FuncDecl struct {
	DeclNode
	FuncPos source.Pos
	Name    string
	Params  []*Param
	Result  TypeExpr // nil for void
	// Body is nil when the parser was told to pass over it unread
	// (parser.Scratch.ParseSkipping).
	Body *BlockStmt
	// End is the offset just past the last token of the body the parser
	// read (its closing brace, when it parsed without error).
	End source.Pos
}

// ExternDecl is "extern func name(params) ret?;" — a prototype for a
// function defined in another compilation unit.
type ExternDecl struct {
	DeclNode
	ExternPos source.Pos
	Name      string
	Params    []*Param
	Result    TypeExpr // nil for void
}

// VarDecl is a global "var name type (= const)?;". Inside function bodies
// the same node appears wrapped in a DeclStmt.
type VarDecl struct {
	DeclNode
	VarPos source.Pos
	Name   string
	Type   TypeExpr
	Init   Expr // optional; must be constant for globals
}

// ConstDecl is "const name = constexpr;" — an int constant.
type ConstDecl struct {
	DeclNode
	ConstPos source.Pos
	Name     string
	Value    Expr
}

func (d *FuncDecl) Pos() source.Pos   { return d.FuncPos }
func (d *ExternDecl) Pos() source.Pos { return d.ExternPos }
func (d *VarDecl) Pos() source.Pos    { return d.VarPos }
func (d *ConstDecl) Pos() source.Pos  { return d.ConstPos }

func (*FuncDecl) decl()   {}
func (*ExternDecl) decl() {}
func (*VarDecl) decl()    {}
func (*ConstDecl) decl()  {}

func (d *FuncDecl) DeclName() string   { return d.Name }
func (d *ExternDecl) DeclName() string { return d.Name }
func (d *VarDecl) DeclName() string    { return d.Name }
func (d *ConstDecl) DeclName() string  { return d.Name }

// ---------------------------------------------------------------------------
// Statements

// Stmt is a statement node.
type Stmt interface {
	Node
	stmt()
}

// BlockStmt is "{ stmts }".
type BlockStmt struct {
	LbracePos source.Pos
	Stmts     []Stmt
}

// DeclStmt wraps a local VarDecl used as a statement.
type DeclStmt struct {
	Decl *VarDecl
}

// AssignStmt is "lhs op rhs;" where op is "=" or a compound assignment.
// For "x++" / "x--" the parser desugars to "x += 1" / "x -= 1".
type AssignStmt struct {
	Lhs Expr // IdentExpr or IndexExpr
	Op  token.Kind
	Rhs Expr
}

// IfStmt is "if cond { } else ..." — Else is nil, a BlockStmt, or an IfStmt.
type IfStmt struct {
	IfPos source.Pos
	Cond  Expr
	Then  *BlockStmt
	Else  Stmt
}

// WhileStmt is "while cond { body }".
type WhileStmt struct {
	WhilePos source.Pos
	Cond     Expr
	Body     *BlockStmt
}

// ForStmt is "for init; cond; post { body }"; any of the three may be nil.
type ForStmt struct {
	ForPos source.Pos
	Init   Stmt // DeclStmt or AssignStmt
	Cond   Expr
	Post   Stmt // AssignStmt
	Body   *BlockStmt
}

// ReturnStmt is "return expr?;".
type ReturnStmt struct {
	ReturnPos source.Pos
	Value     Expr // nil for void return
}

// BreakStmt is "break;".
type BreakStmt struct{ BreakPos source.Pos }

// ContinueStmt is "continue;".
type ContinueStmt struct{ ContinuePos source.Pos }

// ExprStmt is an expression evaluated for effect (a call).
type ExprStmt struct {
	X Expr
}

func (s *BlockStmt) Pos() source.Pos    { return s.LbracePos }
func (s *DeclStmt) Pos() source.Pos     { return s.Decl.Pos() }
func (s *AssignStmt) Pos() source.Pos   { return s.Lhs.Pos() }
func (s *IfStmt) Pos() source.Pos       { return s.IfPos }
func (s *WhileStmt) Pos() source.Pos    { return s.WhilePos }
func (s *ForStmt) Pos() source.Pos      { return s.ForPos }
func (s *ReturnStmt) Pos() source.Pos   { return s.ReturnPos }
func (s *BreakStmt) Pos() source.Pos    { return s.BreakPos }
func (s *ContinueStmt) Pos() source.Pos { return s.ContinuePos }
func (s *ExprStmt) Pos() source.Pos     { return s.X.Pos() }

func (*BlockStmt) stmt()    {}
func (*DeclStmt) stmt()     {}
func (*AssignStmt) stmt()   {}
func (*IfStmt) stmt()       {}
func (*WhileStmt) stmt()    {}
func (*ForStmt) stmt()      {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ExprStmt) stmt()     {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an expression node.
type Expr interface {
	Node
	// ExprID returns the expression's number within its file.
	ExprID() int
}

// ExprNode is embedded in every expression node. ID numbers the file's
// expressions 0 to File.NumExprs-1 (see DeclNode: same purpose, same
// rule for hand-built trees).
type ExprNode struct{ ID int32 }

// ExprID returns the node's number within its file.
func (n *ExprNode) ExprID() int { return int(n.ID) }

// IdentExpr is a name use.
type IdentExpr struct {
	ExprNode
	NamePos source.Pos
	Name    string
}

// IntLit is an integer literal.
type IntLit struct {
	ExprNode
	LitPos source.Pos
	Value  int64
}

// BoolLit is "true" or "false".
type BoolLit struct {
	ExprNode
	LitPos source.Pos
	Value  bool
}

// StringLit appears only as the first argument of print.
type StringLit struct {
	ExprNode
	LitPos source.Pos
	Value  string
}

// BinaryExpr is "x op y".
type BinaryExpr struct {
	ExprNode
	X  Expr
	Op token.Kind
	Y  Expr
}

// UnaryExpr is "op x" for op in {-, !, ^}.
type UnaryExpr struct {
	ExprNode
	OpPos source.Pos
	Op    token.Kind
	X     Expr
}

// CallExpr is "callee(args)". Builtins (print, assert) are calls too.
type CallExpr struct {
	ExprNode
	Callee *IdentExpr
	Args   []Expr
	Rparen source.Pos
}

// IndexExpr is "arr[i]".
type IndexExpr struct {
	ExprNode
	X     Expr // IdentExpr naming an array
	Index Expr
}

// ParenExpr is "(x)"; kept so the printer round-trips faithfully.
type ParenExpr struct {
	ExprNode
	LparenPos source.Pos
	X         Expr
}

func (e *IdentExpr) Pos() source.Pos  { return e.NamePos }
func (e *IntLit) Pos() source.Pos     { return e.LitPos }
func (e *BoolLit) Pos() source.Pos    { return e.LitPos }
func (e *StringLit) Pos() source.Pos  { return e.LitPos }
func (e *BinaryExpr) Pos() source.Pos { return e.X.Pos() }
func (e *UnaryExpr) Pos() source.Pos  { return e.OpPos }
func (e *CallExpr) Pos() source.Pos   { return e.Callee.Pos() }
func (e *IndexExpr) Pos() source.Pos  { return e.X.Pos() }
func (e *ParenExpr) Pos() source.Pos  { return e.LparenPos }

// ---------------------------------------------------------------------------
// Traversal

// Inspect walks the tree rooted at n in depth-first order, calling f for
// each node; if f returns false the node's children are skipped.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *File:
		for _, d := range n.Decls {
			Inspect(d, f)
		}
	case *FuncDecl:
		for _, p := range n.Params {
			Inspect(p, f)
		}
		if n.Result != nil {
			Inspect(n.Result, f)
		}
		Inspect(n.Body, f)
	case *ExternDecl:
		for _, p := range n.Params {
			Inspect(p, f)
		}
		if n.Result != nil {
			Inspect(n.Result, f)
		}
	case *VarDecl:
		Inspect(n.Type, f)
		if n.Init != nil {
			Inspect(n.Init, f)
		}
	case *ConstDecl:
		Inspect(n.Value, f)
	case *Param:
		Inspect(n.Type, f)
	case *ArrayType:
		Inspect(n.Elem, f)
	case *BlockStmt:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *DeclStmt:
		Inspect(n.Decl, f)
	case *AssignStmt:
		Inspect(n.Lhs, f)
		Inspect(n.Rhs, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		if n.Else != nil {
			Inspect(n.Else, f)
		}
	case *WhileStmt:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *ForStmt:
		if n.Init != nil {
			Inspect(n.Init, f)
		}
		if n.Cond != nil {
			Inspect(n.Cond, f)
		}
		if n.Post != nil {
			Inspect(n.Post, f)
		}
		Inspect(n.Body, f)
	case *ReturnStmt:
		if n.Value != nil {
			Inspect(n.Value, f)
		}
	case *ExprStmt:
		Inspect(n.X, f)
	case *BinaryExpr:
		Inspect(n.X, f)
		Inspect(n.Y, f)
	case *UnaryExpr:
		Inspect(n.X, f)
	case *CallExpr:
		Inspect(n.Callee, f)
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *IndexExpr:
		Inspect(n.X, f)
		Inspect(n.Index, f)
	case *ParenExpr:
		Inspect(n.X, f)
	case *ScalarType, *IdentExpr, *IntLit, *BoolLit, *StringLit, *BreakStmt, *ContinueStmt:
		// leaves
	}
}

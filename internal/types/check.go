package types

// This file implements the semantic checker proper: scope management,
// statement and expression checking, constant folding, and the
// all-paths-return analysis.

import (
	"statefulcc/internal/ast"
	"statefulcc/internal/source"
	"statefulcc/internal/token"
)

// Check type-checks one compilation unit. Diagnostics go to errs; the
// returned Info is usable (for the checked parts) even on error. The tree
// must come from the parser, which numbers the nodes Info is indexed by.
// Every top-level declaration is checked, and every function body the tree
// holds: a function whose body the parser passed over has its signature
// checked only.
func Check(file *source.File, tree *ast.File, errs *source.ErrorList) *Info {
	return new(Scratch).Check(file, tree, errs)
}

// Scratch is one worker's reusable checking memory: Info's tables, the
// top-level scope, the stack of local scopes, and the unit's symbols and
// function signatures. One Scratch per worker, never two goroutines on one;
// the package-level Check makes a fresh one.
type Scratch struct {
	info Info
	top  map[string]*Symbol
	// locals holds the block scopes of the function being checked, innermost
	// last; a scope is the entries above the mark its opener keeps.
	locals []*Symbol
	// syms, sigs and sigParams are the memory of the unit's symbols, its
	// functions' signatures and their parameter types. Each has at most one
	// entry per declaring node, so it is sized once from the parser's count
	// and never grown: its entries are pointed to.
	syms      []Symbol
	sigs      []Signature
	sigParams []*Type
}

// Check is the package-level Check in the worker's scratch. The Info it
// returns is the scratch's own: it is valid until the next Check or Release.
func (s *Scratch) Check(file *source.File, tree *ast.File, errs *source.ErrorList) *Info {
	s.Release()
	if s.top == nil {
		s.top = make(map[string]*Symbol)
	}
	s.info.exprs = sized(s.info.exprs, tree.NumExprs)
	s.info.defs = sized(s.info.defs, tree.NumDecls)
	s.info.globalInits = sized(s.info.globalInits, tree.NumDecls)
	s.syms = reserve(s.syms, tree.NumDecls)
	s.sigs = reserve(s.sigs, tree.NumDecls)
	s.sigParams = reserve(s.sigParams, tree.NumDecls)
	c := &checker{Scratch: s, file: file, errs: errs}
	s.top[BuiltinPrint], s.top[BuiltinAssert] = builtinPrint, builtinAssert
	c.collectTopLevel(tree)
	c.checkBodies(tree)
	return &s.info
}

// Release zeroes the scratch, keeping its memory. Every table is as long as
// its last file needed, so zeroing that far leaves the whole capacity zero —
// which the next Check relies on: a larger file before a smaller one, or one
// that stopped at an error, leaves nothing to be read as this file's. The
// owner also calls it when a unit is done, so that an idle worker does not
// pin the unit's AST and symbols.
func (s *Scratch) Release() {
	info := &s.info
	clear(info.exprs)
	clear(info.defs)
	clear(info.globalInits)
	clear(info.Funcs)
	clear(info.Globals)
	info.exprs, info.defs, info.globalInits = info.exprs[:0], info.defs[:0], info.globalInits[:0]
	info.Funcs, info.Globals = info.Funcs[:0], info.Globals[:0]
	clear(s.top)
	clear(s.locals[:cap(s.locals)])
	clear(s.syms)
	clear(s.sigs)
	clear(s.sigParams)
	s.locals, s.syms, s.sigs, s.sigParams = s.locals[:0], s.syms[:0], s.sigs[:0], s.sigParams[:0]
}

// sized returns a table of length n on buf's memory, which Release left
// zeroed through its capacity.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// reserve returns an empty list with room for n on buf's memory, which
// Release left zeroed as far as it was used.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n+n/4)
	}
	return buf
}

// The builtins are the same two symbols in every unit; nothing writes to a
// symbol after it is declared.
var (
	builtinPrint = &Symbol{
		Kind: SymBuiltin, Name: BuiltinPrint,
		Sig: &Signature{Result: VoidType}, // variadic; arg checking is special-cased
	}
	builtinAssert = &Symbol{
		Kind: SymBuiltin, Name: BuiltinAssert,
		Sig: &Signature{Params: []*Type{BoolType}, Result: VoidType},
	}
)

type checker struct {
	*Scratch
	file *source.File
	errs *source.ErrorList

	// Per-function state.
	fn        *ast.FuncDecl
	fnSig     *Signature
	loopDepth int
	scope     int // where the innermost open scope starts in locals
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Errorf(c.file.Position(pos), format, args...)
}

// newSymbol places sym in the unit's symbol memory.
func (c *checker) newSymbol(sym Symbol) *Symbol {
	c.syms = append(c.syms, sym)
	return &c.syms[len(c.syms)-1]
}

// openScope starts a block scope inside the current one, returning the
// enclosing scope's mark for closeScope to go back to.
func (c *checker) openScope() (outer int) {
	outer, c.scope = c.scope, len(c.locals)
	return outer
}

func (c *checker) closeScope(outer int) {
	clear(c.locals[c.scope:])
	c.locals, c.scope = c.locals[:c.scope], outer
}

// lookup resolves name innermost scope first, then at top level.
func (c *checker) lookup(name string) *Symbol {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if sym := c.locals[i]; sym.Name == name {
			return sym
		}
	}
	return c.top[name]
}

// declareLocal adds sym to the current scope, or returns the symbol already
// declared there under its name.
func (c *checker) declareLocal(sym *Symbol) *Symbol {
	for _, prev := range c.locals[c.scope:] {
		if prev.Name == sym.Name {
			return prev
		}
	}
	c.locals = append(c.locals, sym)
	return nil
}

// resolveType converts a syntactic type to a semantic one.
func (c *checker) resolveType(t ast.TypeExpr) *Type {
	switch t := t.(type) {
	case *ast.ScalarType:
		if t.Kind == token.BOOLTYPE {
			return BoolType
		}
		return IntType
	case *ast.ArrayType:
		if t.Len <= 0 {
			c.errorf(t.Pos(), "array length must be positive, got %d", t.Len)
			return ArrayOf(1)
		}
		return ArrayOf(t.Len)
	default:
		return InvalidType
	}
}

// signatureOf places the signature of a function or extern in the unit's
// signature memory.
func (c *checker) signatureOf(params []*ast.Param, result ast.TypeExpr) *Signature {
	c.sigs = append(c.sigs, Signature{Result: VoidType})
	sig := &c.sigs[len(c.sigs)-1]
	start := len(c.sigParams)
	for _, p := range params {
		t := c.resolveType(p.Type)
		if t.Kind == Array {
			c.errorf(p.Pos(), "arrays cannot be passed as parameters")
			t = IntType
		}
		c.sigParams = append(c.sigParams, t)
	}
	if end := len(c.sigParams); end > start {
		sig.Params = c.sigParams[start:end:end]
	}
	if result != nil {
		t := c.resolveType(result)
		if t.Kind == Array {
			c.errorf(result.Pos(), "arrays cannot be returned")
			t = IntType
		}
		sig.Result = t
	}
	return sig
}

// collectTopLevel declares all top-level names before checking bodies, so
// that forward references between functions work.
func (c *checker) collectTopLevel(tree *ast.File) {
	for _, d := range tree.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			sym := c.newSymbol(Symbol{Kind: SymFunc, Name: d.Name, Sig: c.signatureOf(d.Params, d.Result), Decl: d})
			c.declareTop(sym, d.Pos(), d.ID)
		case *ast.ExternDecl:
			sym := c.newSymbol(Symbol{Kind: SymExtern, Name: d.Name, Sig: c.signatureOf(d.Params, d.Result), Decl: d})
			c.declareTop(sym, d.Pos(), d.ID)
		case *ast.VarDecl:
			t := c.resolveType(d.Type)
			sym := c.newSymbol(Symbol{Kind: SymGlobal, Name: d.Name, Type: t, Decl: d})
			if c.declareTop(sym, d.Pos(), d.ID) {
				c.info.Globals = append(c.info.Globals, sym)
				if d.Init != nil {
					if t.Kind == Array {
						c.errorf(d.Init.Pos(), "array globals cannot have initializers")
					} else if v, ok := c.constEval(d.Init); ok {
						c.info.globalInits[d.ID] = v
					} else {
						c.errorf(d.Init.Pos(), "global initializer must be a constant expression")
					}
				}
			}
		case *ast.ConstDecl:
			v, ok := c.constEval(d.Value)
			if !ok {
				c.errorf(d.Value.Pos(), "const initializer must be a constant expression")
			}
			sym := c.newSymbol(Symbol{Kind: SymConst, Name: d.Name, Type: IntType, Const: v, Decl: d})
			c.declareTop(sym, d.Pos(), d.ID)
		}
	}
}

// declareTop enters the symbol of the top-level declaration numbered id.
func (c *checker) declareTop(sym *Symbol, pos source.Pos, id int32) bool {
	if prev := c.top[sym.Name]; prev != nil {
		// A matching extern followed by a definition (or vice versa) is
		// an error in one unit: externs refer to other units only.
		c.errorf(pos, "%s redeclared in this unit (previous declaration as %s)", sym.Name, prev.Kind)
		return false
	}
	c.top[sym.Name] = sym
	c.info.defs[id] = sym
	return true
}

func (c *checker) checkBodies(tree *ast.File) {
	for _, d := range tree.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		sym := c.info.defs[fn.ID]
		if sym == nil {
			continue // redeclaration; already reported
		}
		c.info.Funcs = append(c.info.Funcs, fn)
		if fn.Body == nil {
			continue // passed over unread: the compiler reuses its lowering
		}
		c.fn = fn
		c.fnSig = sym.Sig
		c.loopDepth = 0

		outer := c.openScope() // the parameters' scope, which the body may shadow
		for i, p := range fn.Params {
			psym := c.newSymbol(Symbol{Kind: SymParam, Name: p.Name, Type: sym.Sig.Params[i], Decl: p})
			if prev := c.declareLocal(psym); prev != nil {
				c.errorf(p.Pos(), "duplicate parameter %s", p.Name)
			}
			c.info.defs[p.ID] = psym
		}
		c.checkScopedBlock(fn.Body)
		c.closeScope(outer)

		if sym.Sig.Result.Kind != Void && !blockReturns(fn.Body) {
			c.errorf(fn.Pos(), "function %s: missing return on some paths", fn.Name)
		}
	}
	c.fn = nil
}

// --- statements --------------------------------------------------------------

// checkScopedBlock checks b in a scope of its own.
func (c *checker) checkScopedBlock(b *ast.BlockStmt) {
	outer := c.openScope()
	c.checkBlock(b)
	c.closeScope(outer)
}

func (c *checker) checkBlock(b *ast.BlockStmt) {
	warned := false
	for i, s := range b.Stmts {
		c.checkStmt(s)
		if !warned && i+1 < len(b.Stmts) && stmtTerminates(s) {
			c.errs.Warnf(c.file.Position(b.Stmts[i+1].Pos()), "unreachable code")
			warned = true
		}
	}
}

// stmtTerminates reports whether control cannot continue past s — the
// unreachable-code warning's (conservative) predicate.
func stmtTerminates(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.BreakStmt, *ast.ContinueStmt:
		return true
	}
	return stmtReturns(s)
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.checkScopedBlock(s)
	case *ast.DeclStmt:
		c.checkLocalDecl(s.Decl)
	case *ast.AssignStmt:
		c.checkAssign(s)
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkScopedBlock(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.loopDepth++
		c.checkScopedBlock(s.Body)
		c.loopDepth--
	case *ast.ForStmt:
		outer := c.openScope() // the header's own scope
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loopDepth++
		c.checkScopedBlock(s.Body)
		c.loopDepth--
		c.closeScope(outer)
	case *ast.ReturnStmt:
		c.checkReturn(s)
	case *ast.BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "break outside loop")
		}
	case *ast.ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(s.Pos(), "continue outside loop")
		}
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	}
}

func (c *checker) checkLocalDecl(d *ast.VarDecl) {
	t := c.resolveType(d.Type)
	sym := c.newSymbol(Symbol{Kind: SymLocal, Name: d.Name, Type: t, Decl: d})
	if prev := c.declareLocal(sym); prev != nil {
		c.errorf(d.Pos(), "%s redeclared in this scope", d.Name)
	}
	c.info.defs[d.ID] = sym
	if d.Init != nil {
		it := c.checkExpr(d.Init)
		if t.Kind == Array {
			c.errorf(d.Init.Pos(), "array variables cannot have initializers")
		} else if !it.Equal(t) && it.Kind != Invalid {
			c.errorf(d.Init.Pos(), "cannot initialize %s (%s) with %s", d.Name, t, it)
		}
	}
}

func (c *checker) checkAssign(s *ast.AssignStmt) {
	lt := c.checkExpr(s.Lhs)
	rt := c.checkExpr(s.Rhs)
	if id, ok := s.Lhs.(*ast.IdentExpr); ok {
		if sym := c.info.SymbolOf(id); sym != nil {
			switch sym.Kind {
			case SymConst:
				c.errorf(s.Pos(), "cannot assign to constant %s", sym.Name)
				return
			case SymFunc, SymExtern, SymBuiltin:
				c.errorf(s.Pos(), "cannot assign to function %s", sym.Name)
				return
			}
			if sym.Type != nil && sym.Type.Kind == Array {
				c.errorf(s.Pos(), "cannot assign to array %s as a whole", sym.Name)
				return
			}
		}
	}
	if op, ok := s.Op.CompoundAssignOp(); ok {
		_ = op
		if lt.Kind != Int && lt.Kind != Invalid {
			c.errorf(s.Pos(), "compound assignment requires int operands, got %s", lt)
		}
		if rt.Kind != Int && rt.Kind != Invalid {
			c.errorf(s.Rhs.Pos(), "compound assignment requires int operands, got %s", rt)
		}
		return
	}
	if !lt.Equal(rt) && lt.Kind != Invalid && rt.Kind != Invalid {
		c.errorf(s.Pos(), "cannot assign %s to %s", rt, lt)
	}
}

func (c *checker) checkReturn(s *ast.ReturnStmt) {
	want := c.fnSig.Result
	if s.Value == nil {
		if want.Kind != Void {
			c.errorf(s.Pos(), "missing return value (want %s)", want)
		}
		return
	}
	got := c.checkExpr(s.Value)
	if want.Kind == Void {
		c.errorf(s.Pos(), "function %s returns no value", c.fn.Name)
		return
	}
	if !got.Equal(want) && got.Kind != Invalid {
		c.errorf(s.Value.Pos(), "cannot return %s (want %s)", got, want)
	}
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if t.Kind != Bool && t.Kind != Invalid {
		c.errorf(e.Pos(), "condition must be bool, got %s", t)
	}
}

// --- expressions ---------------------------------------------------------------

// setConst records that e folds to the constant v.
func (c *checker) setConst(e ast.Expr, v int64) {
	x := &c.info.exprs[e.ExprID()]
	x.val, x.isConst = v, true
}

func (c *checker) checkExpr(e ast.Expr) *Type {
	t := c.exprType(e)
	c.info.exprs[e.ExprID()].typ = t
	return t
}

func (c *checker) exprType(e ast.Expr) *Type {
	switch e := e.(type) {
	case *ast.IntLit:
		c.setConst(e, e.Value)
		return IntType
	case *ast.BoolLit:
		return BoolType
	case *ast.StringLit:
		c.errorf(e.Pos(), "string literals are only allowed as the first argument of print")
		return InvalidType
	case *ast.ParenExpr:
		return c.checkExpr(e.X)
	case *ast.IdentExpr:
		return c.identType(e)
	case *ast.UnaryExpr:
		return c.unaryType(e)
	case *ast.BinaryExpr:
		return c.binaryType(e)
	case *ast.IndexExpr:
		return c.indexType(e)
	case *ast.CallExpr:
		return c.callType(e)
	default:
		return InvalidType
	}
}

func (c *checker) identType(e *ast.IdentExpr) *Type {
	sym := c.lookup(e.Name)
	if sym == nil {
		c.errorf(e.Pos(), "undefined: %s", e.Name)
		return InvalidType
	}
	c.info.exprs[e.ID].sym = sym
	switch sym.Kind {
	case SymConst:
		c.setConst(e, sym.Const)
		return IntType
	case SymFunc, SymExtern, SymBuiltin:
		// Calls resolve their callee directly in callType, so reaching
		// here means the function name is used as a value — MiniC has no
		// function values.
		c.errorf(e.Pos(), "%s is a function, not a value", e.Name)
		return InvalidType
	default:
		return sym.Type
	}
}

func (c *checker) unaryType(e *ast.UnaryExpr) *Type {
	xt := c.checkExpr(e.X)
	switch e.Op {
	case token.SUB, token.XOR:
		if xt.Kind != Int && xt.Kind != Invalid {
			c.errorf(e.Pos(), "operator %s requires int, got %s", e.Op, xt)
			return InvalidType
		}
		if v, ok := c.info.ConstVal(e.X); ok {
			if e.Op == token.SUB {
				c.setConst(e, -v)
			} else {
				c.setConst(e, ^v)
			}
		}
		return IntType
	case token.NOT:
		if xt.Kind != Bool && xt.Kind != Invalid {
			c.errorf(e.Pos(), "operator ! requires bool, got %s", xt)
			return InvalidType
		}
		return BoolType
	}
	return InvalidType
}

func (c *checker) binaryType(e *ast.BinaryExpr) *Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	bad := xt.Kind == Invalid || yt.Kind == Invalid

	switch e.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.SHL, token.SHR:
		if !bad && (xt.Kind != Int || yt.Kind != Int) {
			c.errorf(e.Pos(), "operator %s requires int operands, got %s and %s", e.Op, xt, yt)
			return InvalidType
		}
		if xv, ok := c.info.ConstVal(e.X); ok {
			if yv, ok := c.info.ConstVal(e.Y); ok {
				if v, ok := foldInt(e.Op, xv, yv); ok {
					c.setConst(e, v)
				}
			}
		}
		return IntType
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		if !bad && (xt.Kind != Int || yt.Kind != Int) {
			c.errorf(e.Pos(), "operator %s requires int operands, got %s and %s", e.Op, xt, yt)
			return InvalidType
		}
		return BoolType
	case token.EQL, token.NEQ:
		if !bad && (!xt.Equal(yt) || !xt.IsScalar()) {
			c.errorf(e.Pos(), "operator %s requires matching scalar operands, got %s and %s", e.Op, xt, yt)
			return InvalidType
		}
		return BoolType
	case token.LAND, token.LOR:
		if !bad && (xt.Kind != Bool || yt.Kind != Bool) {
			c.errorf(e.Pos(), "operator %s requires bool operands, got %s and %s", e.Op, xt, yt)
			return InvalidType
		}
		return BoolType
	}
	return InvalidType
}

func (c *checker) indexType(e *ast.IndexExpr) *Type {
	xt := c.checkExpr(e.X)
	it := c.checkExpr(e.Index)
	if it.Kind != Int && it.Kind != Invalid {
		c.errorf(e.Index.Pos(), "array index must be int, got %s", it)
	}
	if xt.Kind != Array {
		if xt.Kind != Invalid {
			c.errorf(e.Pos(), "indexing requires an array, got %s", xt)
		}
		return InvalidType
	}
	if v, ok := c.info.ConstVal(e.Index); ok && (v < 0 || v >= xt.Len) {
		c.errorf(e.Index.Pos(), "constant index %d out of bounds [0,%d)", v, xt.Len)
	}
	return IntType
}

func (c *checker) callType(e *ast.CallExpr) *Type {
	sym := c.lookup(e.Callee.Name)
	if sym == nil {
		c.errorf(e.Callee.Pos(), "undefined function: %s", e.Callee.Name)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return InvalidType
	}
	c.info.exprs[e.Callee.ID].sym = sym
	switch sym.Kind {
	case SymFunc, SymExtern:
		return c.checkCallArgs(e, sym.Sig)
	case SymBuiltin:
		return c.checkBuiltinCall(e, sym)
	default:
		c.errorf(e.Callee.Pos(), "%s is not a function", e.Callee.Name)
		for _, a := range e.Args {
			c.checkExpr(a)
		}
		return InvalidType
	}
}

func (c *checker) checkCallArgs(e *ast.CallExpr, sig *Signature) *Type {
	if len(e.Args) != len(sig.Params) {
		c.errorf(e.Pos(), "%s expects %d arguments, got %d", e.Callee.Name, len(sig.Params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(sig.Params) && !at.Equal(sig.Params[i]) && at.Kind != Invalid {
			c.errorf(a.Pos(), "argument %d of %s: cannot use %s as %s", i+1, e.Callee.Name, at, sig.Params[i])
		}
	}
	return sig.Result
}

func (c *checker) checkBuiltinCall(e *ast.CallExpr, sym *Symbol) *Type {
	switch sym.Name {
	case BuiltinPrint:
		// print(("fmt-like label")? , scalars...)
		for i, a := range e.Args {
			if s, ok := a.(*ast.StringLit); ok {
				if i != 0 {
					c.errorf(a.Pos(), "string label must be the first print argument")
				}
				c.info.exprs[s.ID].typ = InvalidType
				continue
			}
			at := c.checkExpr(a)
			if !at.IsScalar() && at.Kind != Invalid {
				c.errorf(a.Pos(), "print argument must be int or bool, got %s", at)
			}
		}
		return VoidType
	case BuiltinAssert:
		if len(e.Args) < 1 || len(e.Args) > 2 {
			c.errorf(e.Pos(), "assert expects 1 or 2 arguments (cond, optional message)")
		}
		if len(e.Args) >= 1 {
			c.checkCond(e.Args[0])
		}
		if len(e.Args) == 2 {
			if _, ok := e.Args[1].(*ast.StringLit); !ok {
				c.errorf(e.Args[1].Pos(), "assert message must be a string literal")
			}
		}
		return VoidType
	}
	return VoidType
}

// --- constant folding ----------------------------------------------------------

// constEval evaluates an expression usable in constant contexts (int
// literals, const references once declared, unary -/^, binary int ops).
// It resolves names in the top-level scope only.
func (c *checker) constEval(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.ParenExpr:
		return c.constEval(e.X)
	case *ast.IdentExpr:
		if sym := c.top[e.Name]; sym != nil && sym.Kind == SymConst {
			c.info.exprs[e.ID].sym = sym
			return sym.Const, true
		}
		return 0, false
	case *ast.UnaryExpr:
		v, ok := c.constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.SUB:
			return -v, true
		case token.XOR:
			return ^v, true
		}
		return 0, false
	case *ast.BinaryExpr:
		x, ok := c.constEval(e.X)
		if !ok {
			return 0, false
		}
		y, ok := c.constEval(e.Y)
		if !ok {
			return 0, false
		}
		return foldInt(e.Op, x, y)
	default:
		return 0, false
	}
}

// foldInt applies an integer binary operator, refusing division by zero and
// out-of-range shifts so that folding never changes program behaviour.
func foldInt(op token.Kind, x, y int64) (int64, bool) {
	switch op {
	case token.ADD:
		return x + y, true
	case token.SUB:
		return x - y, true
	case token.MUL:
		return x * y, true
	case token.QUO:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case token.REM:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case token.AND:
		return x & y, true
	case token.OR:
		return x | y, true
	case token.XOR:
		return x ^ y, true
	case token.SHL:
		if y < 0 || y >= 64 {
			return 0, false
		}
		return x << uint(y), true
	case token.SHR:
		if y < 0 || y >= 64 {
			return 0, false
		}
		return x >> uint(y), true
	}
	return 0, false
}

// --- control-flow return analysis -------------------------------------------

// blockReturns reports whether every path through b ends in a return.
func blockReturns(b *ast.BlockStmt) bool {
	for _, s := range b.Stmts {
		if stmtReturns(s) {
			return true
		}
	}
	return false
}

func stmtReturns(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BlockStmt:
		return blockReturns(s)
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		return blockReturns(s.Then) && stmtReturns(s.Else)
	case *ast.WhileStmt:
		// "while true" without a break cannot fall through: control either
		// loops forever or leaves via a return inside the body.
		if lit, ok := s.Cond.(*ast.BoolLit); ok && lit.Value {
			hasBreak := false
			ast.Inspect(s.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.BreakStmt:
					hasBreak = true
					return false
				case *ast.WhileStmt, *ast.ForStmt:
					// Breaks inside nested loops do not exit this one.
					return false
				}
				return true
			})
			return !hasBreak
		}
		return false
	default:
		return false
	}
}

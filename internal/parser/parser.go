// Package parser implements a recursive-descent parser for MiniC with
// precedence-climbing expression parsing and panic-free error recovery:
// on a syntax error the parser records a diagnostic and resynchronizes at
// the next statement or declaration boundary, so one bad construct does not
// hide later errors.
package parser

import (
	"strconv"

	"statefulcc/internal/ast"
	"statefulcc/internal/lexer"
	"statefulcc/internal/source"
	"statefulcc/internal/token"
)

// Parser consumes the token stream of one file.
type Parser struct {
	mem  *Scratch
	file *source.File
	toks []lexer.Token
	pos  int
	errs *source.ErrorList
	// Next expression and declaration numbers (ast.ExprNode, ast.DeclNode).
	nexprs, ndecls int32
}

// Scratch is one worker's reusable parsing memory: the token buffer, the
// intern table the lexer spells names from, the arena the AST is cut from,
// and the stacks on which the entries of a statement, argument, parameter or
// declaration list wait until the list is complete and is cut at its final
// length (nested lists stack above their parents). One Scratch per worker,
// never two goroutines on one; the package-level functions make a fresh one
// per call, and the trees they return are the caller's to keep.
type Scratch struct {
	tokBuf []lexer.Token
	names  lexer.Names
	nodes  arena
	stmts  []ast.Stmt
	exprs  []ast.Expr
	params []*ast.Param
	decls  []ast.Decl
}

// take pops the entries above mark off a list stack into a list of exactly
// their number cut from mem (nil for none).
func take[T any](stack *[]T, mark int, mem *chunks[T]) []T {
	var list []T
	if top := (*stack)[mark:]; len(top) > 0 {
		list = mem.cut(len(top))
		copy(list, top)
	}
	*stack = (*stack)[:mark]
	return list
}

// place cuts a new node from mem and sets it to n.
func place[T any](mem *chunks[T], n T) *T {
	node := &mem.cut(1)[0]
	*node = n
	return node
}

// clearStacks zeroes the token buffer and the list stacks, keeping their
// memory: the tokens' literal strings and the listed nodes live on in the
// AST only.
func (s *Scratch) clearStacks() {
	clear(s.tokBuf)
	clear(s.stmts[:cap(s.stmts)])
	clear(s.exprs[:cap(s.exprs)])
	clear(s.params[:cap(s.params)])
	clear(s.decls[:cap(s.decls)])
	s.stmts, s.exprs, s.params, s.decls = s.stmts[:0], s.exprs[:0], s.params[:0], s.decls[:0]
}

// Release gives the memory of the tree the last ParseFile returned back to
// the scratch, wiped: that tree must not be used again, and the worker pins
// none of it.
func (s *Scratch) Release() { s.nodes.release() }

// ParseFile lexes and parses one source file, reporting problems to errs.
// A partial AST is returned even when errors occurred.
func ParseFile(file *source.File, errs *source.ErrorList) *ast.File {
	return new(Scratch).ParseFile(file, errs)
}

// ParseFile is the package-level ParseFile in the worker's scratch. It
// releases the tree the previous ParseFile returned; the one it returns is
// cut from the scratch's arena and is valid until the next ParseFile or
// Release.
func (s *Scratch) ParseFile(file *source.File, errs *source.ErrorList) *ast.File {
	return s.ParseSkipping(file, errs, nil)
}

// ParseSkipping is ParseFile with the function bodies at the given ranges
// (each from its opening brace to just past its closing one, sorted) passed
// over unread (lexer.Lexer.Skip): a function whose body the lexer skipped
// has a nil Body. A range that is not where the lexer finds a token, or
// one that does not follow a function's header, is no body: the first is
// lexed as usual, the second is a syntax error.
func (s *Scratch) ParseSkipping(file *source.File, errs *source.ErrorList, bodies []lexer.Span) *ast.File {
	s.Release()
	defer s.clearStacks()
	lx := lexer.New(file, errs)
	lx.Skip(bodies)
	s.tokBuf = lx.TokenizeInto(s.tokBuf, &s.names)
	p := &Parser{mem: s, file: file, toks: s.tokBuf, errs: errs}
	return p.parseFile()
}

// ParseSource is a convenience wrapper over ParseFile for in-memory text.
func ParseSource(name, src string, errs *source.ErrorList) *ast.File {
	return ParseFile(source.NewFile(name, []byte(src)), errs)
}

// ParseExpr parses a standalone expression, for tests and tools.
func ParseExpr(src string, errs *source.ErrorList) ast.Expr {
	f := source.NewFile("<expr>", []byte(src))
	p := &Parser{mem: new(Scratch), file: f, toks: lexer.New(f, errs).Tokenize(), errs: errs}
	e := p.parseExpr()
	p.expect(token.EOF)
	return e
}

// --- token-stream helpers ---------------------------------------------------

func (p *Parser) cur() lexer.Token { return p.toks[p.pos] }
func (p *Parser) kind() token.Kind { return p.toks[p.pos].Kind }
func (p *Parser) peek() token.Kind {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1].Kind
	}
	return token.EOF
}

func (p *Parser) advance() lexer.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.kind() == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		return p.advance()
	}
	p.errorf("expected %q, found %q", k.String(), p.cur().String())
	return lexer.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs.Errorf(p.file.Position(p.cur().Pos), format, args...)
}

// expr and decl number the node being built within the file.
func (p *Parser) expr() ast.ExprNode {
	p.nexprs++
	return ast.ExprNode{ID: p.nexprs - 1}
}

func (p *Parser) decl() ast.DeclNode {
	p.ndecls++
	return ast.DeclNode{ID: p.ndecls - 1}
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *Parser) sync(stopAtBrace bool) {
	for {
		switch p.kind() {
		case token.EOF, token.FUNC, token.EXTERN:
			return
		case token.SEMICOLON:
			p.advance()
			return
		case token.RBRACE:
			if stopAtBrace {
				return
			}
			p.advance()
		default:
			p.advance()
		}
	}
}

// --- declarations ------------------------------------------------------------

func (p *Parser) parseFile() *ast.File {
	f := &ast.File{Name: p.file.Name}
	for !p.at(token.EOF) {
		before := p.pos
		if d := p.parseDecl(); d != nil {
			p.mem.decls = append(p.mem.decls, d)
		}
		if p.pos == before {
			// Guarantee progress on pathological input.
			p.errorf("unexpected token %q at top level", p.cur().String())
			p.advance()
		}
	}
	f.Decls = take(&p.mem.decls, 0, &p.mem.nodes.declLists)
	f.NumExprs, f.NumDecls = int(p.nexprs), int(p.ndecls)
	return f
}

func (p *Parser) parseDecl() ast.Decl {
	switch p.kind() {
	case token.FUNC:
		return p.parseFuncDecl()
	case token.EXTERN:
		return p.parseExternDecl()
	case token.VAR:
		d := p.parseVarDecl()
		p.expect(token.SEMICOLON)
		return d
	case token.CONST:
		return p.parseConstDecl()
	default:
		p.errorf("expected declaration, found %q", p.cur().String())
		p.sync(false)
		return nil
	}
}

func (p *Parser) parseFuncDecl() *ast.FuncDecl {
	fn := place(&p.mem.nodes.funcs, ast.FuncDecl{DeclNode: p.decl(), FuncPos: p.expect(token.FUNC).Pos})
	fn.Name = p.expect(token.IDENT).Lit
	fn.Params = p.parseParams()
	if p.at(token.INTTYPE) || p.at(token.BOOLTYPE) || p.at(token.LBRACK) {
		fn.Result = p.parseType()
	}
	if p.at(token.BODY) {
		p.advance() // a body passed over unread: Body stays nil
		return fn
	}
	fn.Body = p.parseBlock()
	if p.pos > 0 {
		fn.End = p.toks[p.pos-1].Pos + 1
	}
	return fn
}

func (p *Parser) parseExternDecl() *ast.ExternDecl {
	d := place(&p.mem.nodes.externs, ast.ExternDecl{DeclNode: p.decl(), ExternPos: p.expect(token.EXTERN).Pos})
	p.expect(token.FUNC)
	d.Name = p.expect(token.IDENT).Lit
	d.Params = p.parseParams()
	if p.at(token.INTTYPE) || p.at(token.BOOLTYPE) || p.at(token.LBRACK) {
		d.Result = p.parseType()
	}
	p.expect(token.SEMICOLON)
	return d
}

func (p *Parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	mark := len(p.mem.params)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		if len(p.mem.params) > mark && !p.accept(token.COMMA) {
			p.errorf("expected ',' between parameters")
			break
		}
		name := p.expect(token.IDENT)
		typ := p.parseType()
		p.mem.params = append(p.mem.params, place(&p.mem.nodes.params, ast.Param{DeclNode: p.decl(), NamePos: name.Pos, Name: name.Lit, Type: typ}))
	}
	p.expect(token.RPAREN)
	return take(&p.mem.params, mark, &p.mem.nodes.paramLists)
}

func (p *Parser) parseType() ast.TypeExpr {
	switch p.kind() {
	case token.INTTYPE:
		return place(&p.mem.nodes.scalars, ast.ScalarType{TokPos: p.advance().Pos, Kind: token.INTTYPE})
	case token.BOOLTYPE:
		return place(&p.mem.nodes.scalars, ast.ScalarType{TokPos: p.advance().Pos, Kind: token.BOOLTYPE})
	case token.LBRACK:
		lb := p.advance()
		lenTok := p.expect(token.INT)
		n, _ := parseIntLit(lenTok.Lit)
		p.expect(token.RBRACK)
		elemTok := p.expect(token.INTTYPE)
		return &ast.ArrayType{
			LbrackPos: lb.Pos,
			Len:       n,
			Elem:      place(&p.mem.nodes.scalars, ast.ScalarType{TokPos: elemTok.Pos, Kind: token.INTTYPE}),
		}
	default:
		p.errorf("expected type, found %q", p.cur().String())
		return place(&p.mem.nodes.scalars, ast.ScalarType{TokPos: p.cur().Pos, Kind: token.INTTYPE})
	}
}

func (p *Parser) parseVarDecl() *ast.VarDecl {
	d := place(&p.mem.nodes.vars, ast.VarDecl{DeclNode: p.decl(), VarPos: p.expect(token.VAR).Pos})
	d.Name = p.expect(token.IDENT).Lit
	d.Type = p.parseType()
	if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	return d
}

func (p *Parser) parseConstDecl() *ast.ConstDecl {
	d := &ast.ConstDecl{DeclNode: p.decl(), ConstPos: p.expect(token.CONST).Pos}
	d.Name = p.expect(token.IDENT).Lit
	p.expect(token.ASSIGN)
	d.Value = p.parseExpr()
	p.expect(token.SEMICOLON)
	return d
}

// --- statements ---------------------------------------------------------------

func (p *Parser) parseBlock() *ast.BlockStmt {
	b := place(&p.mem.nodes.blocks, ast.BlockStmt{LbracePos: p.expect(token.LBRACE).Pos})
	mark := len(p.mem.stmts)
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		if s := p.parseStmt(); s != nil {
			p.mem.stmts = append(p.mem.stmts, s)
		}
		if p.pos == before {
			p.errorf("unexpected token %q in block", p.cur().String())
			p.advance()
		}
	}
	b.Stmts = take(&p.mem.stmts, mark, &p.mem.nodes.stmtLists)
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.kind() {
	case token.LBRACE:
		return p.parseBlock()
	case token.VAR:
		d := p.parseVarDecl()
		p.expect(token.SEMICOLON)
		return place(&p.mem.nodes.declStmts, ast.DeclStmt{Decl: d})
	case token.IF:
		return p.parseIf()
	case token.WHILE:
		return p.parseWhile()
	case token.FOR:
		return p.parseFor()
	case token.RETURN:
		r := place(&p.mem.nodes.returns, ast.ReturnStmt{ReturnPos: p.advance().Pos})
		if !p.at(token.SEMICOLON) {
			r.Value = p.parseExpr()
		}
		p.expect(token.SEMICOLON)
		return r
	case token.BREAK:
		s := &ast.BreakStmt{BreakPos: p.advance().Pos}
		p.expect(token.SEMICOLON)
		return s
	case token.CONTINUE:
		s := &ast.ContinueStmt{ContinuePos: p.advance().Pos}
		p.expect(token.SEMICOLON)
		return s
	case token.SEMICOLON:
		p.advance() // empty statement
		return nil
	default:
		s := p.parseSimpleStmt()
		p.expect(token.SEMICOLON)
		return s
	}
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement —
// the statement forms legal in for-headers — without the trailing semicolon.
func (p *Parser) parseSimpleStmt() ast.Stmt {
	if p.at(token.VAR) {
		return place(&p.mem.nodes.declStmts, ast.DeclStmt{Decl: p.parseVarDecl()})
	}
	e := p.parseExpr()
	switch {
	case p.kind().IsAssignOp():
		op := p.advance().Kind
		rhs := p.parseExpr()
		if !isLvalue(e) {
			p.errs.Errorf(p.file.Position(e.Pos()), "left side of assignment must be a variable or array element")
		}
		return place(&p.mem.nodes.assigns, ast.AssignStmt{Lhs: e, Op: op, Rhs: rhs})
	case p.at(token.INC), p.at(token.DEC):
		op := token.ADDASSIGN
		if p.advance().Kind == token.DEC {
			op = token.SUBASSIGN
		}
		if !isLvalue(e) {
			p.errs.Errorf(p.file.Position(e.Pos()), "operand of ++/-- must be a variable or array element")
		}
		return place(&p.mem.nodes.assigns, ast.AssignStmt{Lhs: e, Op: op, Rhs: place(&p.mem.nodes.ints, ast.IntLit{ExprNode: p.expr(), LitPos: e.Pos(), Value: 1})})
	default:
		if _, ok := e.(*ast.CallExpr); !ok {
			p.errs.Errorf(p.file.Position(e.Pos()), "expression statement must be a call")
		}
		return &ast.ExprStmt{X: e}
	}
}

func isLvalue(e ast.Expr) bool {
	switch e.(type) {
	case *ast.IdentExpr, *ast.IndexExpr:
		return true
	}
	return false
}

func (p *Parser) parseIf() ast.Stmt {
	s := place(&p.mem.nodes.ifs, ast.IfStmt{IfPos: p.expect(token.IF).Pos})
	s.Cond = p.parseExpr()
	s.Then = p.parseBlock()
	if p.accept(token.ELSE) {
		if p.at(token.IF) {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseBlock()
		}
	}
	return s
}

func (p *Parser) parseWhile() ast.Stmt {
	s := place(&p.mem.nodes.whiles, ast.WhileStmt{WhilePos: p.expect(token.WHILE).Pos})
	s.Cond = p.parseExpr()
	s.Body = p.parseBlock()
	return s
}

func (p *Parser) parseFor() ast.Stmt {
	s := place(&p.mem.nodes.fors, ast.ForStmt{ForPos: p.expect(token.FOR).Pos})
	if !p.at(token.SEMICOLON) {
		s.Init = p.parseSimpleStmt()
	}
	p.expect(token.SEMICOLON)
	if !p.at(token.SEMICOLON) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	if !p.at(token.LBRACE) {
		s.Post = p.parseSimpleStmt()
	}
	s.Body = p.parseBlock()
	return s
}

// --- expressions ----------------------------------------------------------------

func (p *Parser) parseExpr() ast.Expr { return p.parseBinary(1) }

// parseBinary implements precedence climbing; all MiniC binary operators are
// left-associative.
func (p *Parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		prec := p.kind().Precedence()
		if prec < minPrec || prec == 0 {
			return x
		}
		op := p.advance().Kind
		y := p.parseBinary(prec + 1)
		x = place(&p.mem.nodes.binaries, ast.BinaryExpr{ExprNode: p.expr(), X: x, Op: op, Y: y})
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.kind() {
	case token.SUB, token.NOT, token.XOR:
		t := p.advance()
		return place(&p.mem.nodes.unaries, ast.UnaryExpr{ExprNode: p.expr(), OpPos: t.Pos, Op: t.Kind, X: p.parseUnary()})
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.kind() {
		case token.LBRACK:
			p.advance()
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			x = place(&p.mem.nodes.indexes, ast.IndexExpr{ExprNode: p.expr(), X: x, Index: idx})
		case token.LPAREN:
			id, ok := x.(*ast.IdentExpr)
			if !ok {
				p.errorf("called object is not a function name")
				id = place(&p.mem.nodes.idents, ast.IdentExpr{ExprNode: p.expr(), NamePos: x.Pos(), Name: "<error>"})
			}
			x = p.parseCall(id)
		default:
			return x
		}
	}
}

func (p *Parser) parseCall(callee *ast.IdentExpr) ast.Expr {
	p.expect(token.LPAREN)
	call := place(&p.mem.nodes.calls, ast.CallExpr{ExprNode: p.expr(), Callee: callee})
	mark := len(p.mem.exprs)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		if len(p.mem.exprs) > mark && !p.accept(token.COMMA) {
			p.errorf("expected ',' between arguments")
			break
		}
		p.mem.exprs = append(p.mem.exprs, p.parseExpr())
	}
	call.Args = take(&p.mem.exprs, mark, &p.mem.nodes.exprLists)
	call.Rparen = p.expect(token.RPAREN).Pos
	return call
}

func (p *Parser) parsePrimary() ast.Expr {
	switch p.kind() {
	case token.IDENT:
		t := p.advance()
		return place(&p.mem.nodes.idents, ast.IdentExpr{ExprNode: p.expr(), NamePos: t.Pos, Name: t.Lit})
	case token.INT:
		t := p.advance()
		v, err := parseIntLit(t.Lit)
		if err != nil {
			p.errs.Errorf(p.file.Position(t.Pos), "invalid integer literal %q", t.Lit)
		}
		return place(&p.mem.nodes.ints, ast.IntLit{ExprNode: p.expr(), LitPos: t.Pos, Value: v})
	case token.TRUE:
		return &ast.BoolLit{ExprNode: p.expr(), LitPos: p.advance().Pos, Value: true}
	case token.FALSE:
		return &ast.BoolLit{ExprNode: p.expr(), LitPos: p.advance().Pos, Value: false}
	case token.STRING:
		t := p.advance()
		return &ast.StringLit{ExprNode: p.expr(), LitPos: t.Pos, Value: t.Lit}
	case token.LPAREN:
		lp := p.advance()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return place(&p.mem.nodes.parens, ast.ParenExpr{ExprNode: p.expr(), LparenPos: lp.Pos, X: x})
	default:
		p.errorf("expected expression, found %q", p.cur().String())
		t := p.cur()
		if !p.at(token.EOF) && !p.at(token.SEMICOLON) && !p.at(token.RBRACE) && !p.at(token.RPAREN) {
			p.advance()
		}
		return place(&p.mem.nodes.ints, ast.IntLit{ExprNode: p.expr(), LitPos: t.Pos, Value: 0})
	}
}

func parseIntLit(lit string) (int64, error) {
	if len(lit) > 2 && (lit[:2] == "0x" || lit[:2] == "0X") {
		v, err := strconv.ParseUint(lit[2:], 16, 64)
		return int64(v), err
	}
	return strconv.ParseInt(lit, 10, 64)
}

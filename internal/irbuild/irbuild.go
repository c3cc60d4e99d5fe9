// Package irbuild lowers a type-checked MiniC AST into IR.
//
// The output is "memory form": every local variable and parameter is an
// Alloca accessed through Load/Store, and control flow is fully explicit.
// This matches how Clang emits LLVM IR; the mem2reg pass later promotes the
// allocas into SSA registers, which makes mem2reg a pass that always has
// work to do on freshly lowered code — exactly the cost structure the
// stateful pass manager's dormancy analysis is designed around.
package irbuild

import (
	"fmt"

	"statefulcc/internal/ast"
	"statefulcc/internal/ir"
	"statefulcc/internal/token"
	"statefulcc/internal/types"
)

// Build lowers one checked compilation unit into an IR module.
// The AST must have passed type checking without errors. A function whose
// body the parser passed over (a nil Body, parser.Scratch.ParseSkipping)
// is an empty one, with no parameters and no body, in its place in
// declaration order: the caller fills it with IR it kept from an earlier
// compile.
func Build(unit string, tree *ast.File, info *types.Info) (*ir.Module, error) {
	return new(Scratch).Build(unit, tree, info)
}

// Scratch is one worker's reusable lowering memory. Build zeroes its tables
// before it returns, so nothing of a unit's IR or symbols stays behind in
// them. The module Build returns is cut from the scratch's arena and is
// valid until the next Build or Release. One Scratch per worker, never two
// goroutines on one; the package-level Build makes a fresh one, whose arena
// has nothing to reuse.
type Scratch struct {
	// arena holds the IR of the module the last Build returned.
	arena ir.Arena
	// slots[n] is the alloca of the local or parameter whose declaration the
	// parser numbered n (ast.DeclNode).
	slots []*ir.Value
	// loop control targets, innermost last.
	breaks    []*ir.Block
	continues []*ir.Block
	// instrs gathers the current block's instructions until its terminator
	// places them, in a list of exactly their number (ir.Block.AddInstrs).
	instrs []*ir.Value
	// blocks is the layout of the function being lowered; the function gets
	// a copy of what RemoveUnreachable leaves of it.
	blocks []*ir.Block
	// lowered[i] is set when the module's i-th function was lowered, not
	// left empty.
	lowered []bool
}

// Build is the package-level Build in the worker's scratch. It releases the
// module the previous Build returned: that one must not be used again.
func (s *Scratch) Build(unit string, tree *ast.File, info *types.Info) (*ir.Module, error) {
	s.arena.Release()
	defer s.wipe()
	s.slots = ir.Grow(s.slots, tree.NumDecls)
	m := s.arena.NewModule(unit)

	for _, d := range tree.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			sym := info.DefOf(d)
			if sym == nil {
				continue
			}
			g := &ir.Global{Name: sym.Name, Words: 1, Private: isPrivate(sym.Name)}
			if sym.Type.Kind == types.Array {
				g.Words = sym.Type.Len
			} else {
				g.Init = info.GlobalInit(d)
			}
			m.Globals = append(m.Globals, g)
		case *ast.ExternDecl:
			m.Externs = append(m.Externs, d.Name)
		}
	}

	m.Funcs = make([]*ir.Func, 0, len(info.Funcs))
	s.lowered = s.lowered[:0]
	for _, fd := range info.Funcs {
		if fd.Body == nil {
			m.Funcs = append(m.Funcs, m.NewFunc(fd.Name, nil, ir.TVoid))
			s.lowered = append(s.lowered, false)
			continue
		}
		fn, err := s.buildFunc(m, fd, info)
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, fn)
		s.lowered = append(s.lowered, true)
	}
	// An empty function's IR was verified when it was lowered.
	if err := m.VerifySome(s.lowered); err != nil {
		return nil, fmt.Errorf("irbuild produced invalid IR: %w", err)
	}
	return m, nil
}

// Release gives the memory of the module the last Build returned back to
// the scratch, wiped: that module must not be used again, and the worker
// pins none of its IR.
func (s *Scratch) Release() { s.arena.Release() }

// wipe zeroes the scratch's tables through their capacity, keeping the
// memory.
func (s *Scratch) wipe() {
	ir.Wipe(s.slots)
	ir.Wipe(s.breaks)
	ir.Wipe(s.continues)
	ir.Wipe(s.instrs)
	ir.Wipe(s.blocks)
	s.slots, s.breaks, s.continues = s.slots[:0], s.breaks[:0], s.continues[:0]
	s.instrs, s.blocks = s.instrs[:0], s.blocks[:0]
}

func isPrivate(name string) bool { return len(name) > 0 && name[0] == '_' }

func irType(t *types.Type) ir.Type {
	switch t.Kind {
	case types.Int:
		return ir.TInt
	case types.Bool:
		return ir.TBool
	case types.Void:
		return ir.TVoid
	default:
		return ir.TInt
	}
}

type builder struct {
	*Scratch
	f    *ir.Func
	info *types.Info
	// cur is the block being filled, nil after a terminator. Its
	// instructions so far wait in instrs: cur changes only when they have
	// been placed (terminate) or there are none.
	cur *ir.Block
}

func (s *Scratch) buildFunc(m *ir.Module, fd *ast.FuncDecl, info *types.Info) (*ir.Func, error) {
	fsym := info.DefOf(fd)
	if fsym == nil {
		return nil, fmt.Errorf("function %s has no symbol", fd.Name)
	}
	var ptypeBuf [8]ir.Type
	ptypes := ptypeBuf[:0]
	for _, p := range fsym.Sig.Params {
		ptypes = append(ptypes, irType(p))
	}
	f := m.NewFunc(fd.Name, ptypes, irType(fsym.Sig.Result))
	f.Blocks = s.blocks[:0]

	b := &builder{Scratch: s, f: f, info: info}
	entry := f.NewBlock()
	b.cur = entry

	// Parameters are mutable in MiniC: spill each into an alloca.
	for i, p := range fd.Params {
		slot := f.NewValue(ir.OpAlloca, ir.TPtr)
		slot.Aux = 1
		b.emit(slot)
		b.slots[p.ID] = slot
		st := f.NewValue(ir.OpStore, ir.TVoid, slot, f.Params[i])
		b.emit(st)
	}

	b.block(fd.Body)

	// Seal any fall-through: void functions return implicitly; non-void
	// fall-throughs are unreachable by the checker's analysis but must
	// still terminate the block.
	if b.cur != nil {
		ret := f.NewValue(ir.OpRet, ir.TVoid)
		if f.Result != ir.TVoid {
			ret.Args = f.ValueList(b.constZero(f.Result))
		}
		b.terminate(ret)
	}
	f.RemoveUnreachable()
	// The layout grew in the scratch; the function keeps a copy of its
	// final length.
	s.blocks = f.Blocks
	f.Blocks = f.BlockList(s.blocks...)
	return f, nil
}

func (b *builder) constZero(t ir.Type) *ir.Value {
	if t == ir.TBool {
		return b.f.ConstBool(false)
	}
	return b.f.ConstInt(0)
}

// emit appends an instruction to the current block. When the current block
// has been terminated (code after return/break), instructions land in a
// fresh unreachable block that RemoveUnreachable deletes later.
func (b *builder) emit(v *ir.Value) *ir.Value {
	if b.cur == nil {
		b.cur = b.f.NewBlock()
	}
	b.instrs = append(b.instrs, v)
	return v
}

// terminate places the current block's instructions, installs t on it and
// clears it.
func (b *builder) terminate(t *ir.Value) {
	if b.cur == nil {
		b.cur = b.f.NewBlock()
	}
	b.cur.AddInstrs(b.instrs)
	b.instrs = b.instrs[:0]
	b.cur.SetTerm(t)
	b.cur = nil
}

func (b *builder) jumpTo(target *ir.Block) {
	j := b.f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = b.f.BlockList(target)
	b.terminate(j)
}

func (b *builder) branchTo(cond *ir.Value, then, els *ir.Block) {
	br := b.f.NewValue(ir.OpBranch, ir.TVoid, cond)
	br.Blocks = b.f.BlockList(then, els)
	b.terminate(br)
}

// --- statements ---------------------------------------------------------------

func (b *builder) block(blk *ast.BlockStmt) {
	for _, s := range blk.Stmts {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.block(s)
	case *ast.DeclStmt:
		b.localDecl(s.Decl)
	case *ast.AssignStmt:
		b.assign(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.WhileStmt:
		b.whileStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.ReturnStmt:
		ret := b.f.NewValue(ir.OpRet, ir.TVoid)
		if s.Value != nil {
			ret.Args = b.f.ValueList(b.expr(s.Value))
		}
		b.terminate(ret)
	case *ast.BreakStmt:
		b.jumpTo(b.breaks[len(b.breaks)-1])
	case *ast.ContinueStmt:
		b.jumpTo(b.continues[len(b.continues)-1])
	case *ast.ExprStmt:
		b.expr(s.X)
	}
}

func (b *builder) localDecl(d *ast.VarDecl) {
	sym := b.info.DefOf(d)
	size := int64(1)
	if sym.Type.Kind == types.Array {
		size = sym.Type.Len
	}
	slot := b.f.NewValue(ir.OpAlloca, ir.TPtr)
	slot.Aux = size
	b.emit(slot)
	b.slots[d.ID] = slot
	if d.Init != nil {
		v := b.expr(d.Init)
		b.emit(b.f.NewValue(ir.OpStore, ir.TVoid, slot, v))
	} else if sym.Type.Kind != types.Array {
		// Scalars are zero-initialized, matching global semantics and
		// keeping the VM deterministic.
		b.emit(b.f.NewValue(ir.OpStore, ir.TVoid, slot, b.constZero(irType(sym.Type))))
	}
	// Arrays: the VM zeroes fresh frame storage, so no per-element stores.
}

// lvalueAddr computes the address of an assignable location.
func (b *builder) lvalueAddr(e ast.Expr) *ir.Value {
	switch e := e.(type) {
	case *ast.IdentExpr:
		return b.symbolAddr(b.info.SymbolOf(e))
	case *ast.IndexExpr:
		base := b.lvalueAddr(e.X)
		idx := b.expr(e.Index)
		arrLen := b.arrayLen(e.X)
		gep := b.f.NewValue(ir.OpIndexAddr, ir.TPtr, base, idx)
		gep.Aux = arrLen
		return b.emit(gep)
	default:
		panic(fmt.Sprintf("irbuild: not an lvalue: %T", e))
	}
}

func (b *builder) arrayLen(e ast.Expr) int64 {
	if t := b.info.TypeOf(e); t.Kind == types.Array {
		return t.Len
	}
	return 1
}

func (b *builder) symbolAddr(sym *types.Symbol) *ir.Value {
	switch sym.Kind {
	case types.SymGlobal:
		g := b.f.NewValue(ir.OpGlobalAddr, ir.TPtr)
		g.Sym = sym.Name
		return b.emit(g)
	default:
		var slot *ir.Value
		switch d := sym.Decl.(type) {
		case *ast.VarDecl:
			slot = b.slots[d.ID]
		case *ast.Param:
			slot = b.slots[d.ID]
		}
		if slot == nil {
			panic(fmt.Sprintf("irbuild: no storage for %s %s", sym.Kind, sym.Name))
		}
		return slot
	}
}

func (b *builder) assign(s *ast.AssignStmt) {
	addr := b.lvalueAddr(s.Lhs)
	var val *ir.Value
	if binOp, ok := s.Op.CompoundAssignOp(); ok {
		old := b.emit(b.f.NewValue(ir.OpLoad, irType(b.info.TypeOf(s.Lhs)), addr))
		rhs := b.expr(s.Rhs)
		val = b.emit(b.f.NewValue(intOp(binOp), ir.TInt, old, rhs))
	} else {
		val = b.expr(s.Rhs)
	}
	b.emit(b.f.NewValue(ir.OpStore, ir.TVoid, addr, val))
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	thenB := b.f.NewBlock()
	done := b.f.NewBlock()
	elseB := done
	if s.Else != nil {
		elseB = b.f.NewBlock()
	}
	b.cond(s.Cond, thenB, elseB)

	b.cur = thenB
	b.block(s.Then)
	if b.cur != nil {
		b.jumpTo(done)
	}
	if s.Else != nil {
		b.cur = elseB
		b.stmt(s.Else)
		if b.cur != nil {
			b.jumpTo(done)
		}
	}
	b.cur = done
}

func (b *builder) whileStmt(s *ast.WhileStmt) {
	head := b.f.NewBlock()
	body := b.f.NewBlock()
	done := b.f.NewBlock()
	b.jumpTo(head)

	b.cur = head
	b.cond(s.Cond, body, done)

	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, head)
	b.cur = body
	b.block(s.Body)
	if b.cur != nil {
		b.jumpTo(head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.f.NewBlock()
	body := b.f.NewBlock()
	post := b.f.NewBlock()
	done := b.f.NewBlock()
	b.jumpTo(head)

	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.jumpTo(body)
	}

	b.breaks = append(b.breaks, done)
	b.continues = append(b.continues, post)
	b.cur = body
	b.block(s.Body)
	if b.cur != nil {
		b.jumpTo(post)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.jumpTo(head)

	b.cur = done
}

// cond lowers a boolean expression as control flow into then/els,
// implementing short-circuit evaluation without materializing the value.
func (b *builder) cond(e ast.Expr, then, els *ir.Block) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		b.cond(e.X, then, els)
		return
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			b.cond(e.X, els, then)
			return
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			mid := b.f.NewBlock()
			b.cond(e.X, mid, els)
			b.cur = mid
			b.cond(e.Y, then, els)
			return
		case token.LOR:
			mid := b.f.NewBlock()
			b.cond(e.X, then, mid)
			b.cur = mid
			b.cond(e.Y, then, els)
			return
		}
	case *ast.BoolLit:
		if e.Value {
			b.jumpTo(then)
		} else {
			b.jumpTo(els)
		}
		return
	}
	v := b.expr(e)
	b.branchTo(v, then, els)
}

// --- expressions ---------------------------------------------------------------

func intOp(k token.Kind) ir.Op {
	switch k {
	case token.ADD:
		return ir.OpAdd
	case token.SUB:
		return ir.OpSub
	case token.MUL:
		return ir.OpMul
	case token.QUO:
		return ir.OpDiv
	case token.REM:
		return ir.OpRem
	case token.AND:
		return ir.OpAnd
	case token.OR:
		return ir.OpOr
	case token.XOR:
		return ir.OpXor
	case token.SHL:
		return ir.OpShl
	case token.SHR:
		return ir.OpShr
	}
	panic("irbuild: not an int op: " + k.String())
}

func cmpOp(k token.Kind) ir.Op {
	switch k {
	case token.EQL:
		return ir.OpEq
	case token.NEQ:
		return ir.OpNe
	case token.LSS:
		return ir.OpLt
	case token.LEQ:
		return ir.OpLe
	case token.GTR:
		return ir.OpGt
	case token.GEQ:
		return ir.OpGe
	}
	panic("irbuild: not a comparison: " + k.String())
}

func (b *builder) expr(e ast.Expr) *ir.Value {
	// Frontend constant folding: anything the checker proved constant
	// lowers to a single literal.
	if v, ok := b.info.ConstVal(e); ok {
		return b.f.ConstInt(v)
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return b.f.ConstInt(e.Value)
	case *ast.BoolLit:
		return b.f.ConstBool(e.Value)
	case *ast.ParenExpr:
		return b.expr(e.X)
	case *ast.IdentExpr:
		sym := b.info.SymbolOf(e)
		if sym.Kind == types.SymConst {
			return b.f.ConstInt(sym.Const)
		}
		addr := b.symbolAddr(sym)
		return b.emit(b.f.NewValue(ir.OpLoad, irType(b.info.TypeOf(e)), addr))
	case *ast.IndexExpr:
		addr := b.lvalueAddr(e)
		return b.emit(b.f.NewValue(ir.OpLoad, ir.TInt, addr))
	case *ast.UnaryExpr:
		return b.unary(e)
	case *ast.BinaryExpr:
		return b.binary(e)
	case *ast.CallExpr:
		return b.call(e)
	default:
		panic(fmt.Sprintf("irbuild: unexpected expression %T", e))
	}
}

func (b *builder) unary(e *ast.UnaryExpr) *ir.Value {
	x := b.expr(e.X)
	switch e.Op {
	case token.SUB:
		return b.emit(b.f.NewValue(ir.OpNeg, ir.TInt, x))
	case token.XOR:
		return b.emit(b.f.NewValue(ir.OpCompl, ir.TInt, x))
	case token.NOT:
		return b.emit(b.f.NewValue(ir.OpNot, ir.TBool, x))
	}
	panic("irbuild: unexpected unary " + e.Op.String())
}

func (b *builder) binary(e *ast.BinaryExpr) *ir.Value {
	switch e.Op {
	case token.LAND, token.LOR:
		return b.shortCircuit(e)
	}
	x := b.expr(e.X)
	y := b.expr(e.Y)
	switch e.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return b.emit(b.f.NewValue(cmpOp(e.Op), ir.TBool, x, y))
	default:
		return b.emit(b.f.NewValue(intOp(e.Op), ir.TInt, x, y))
	}
}

// shortCircuit materializes a && / || value via control flow and a phi.
func (b *builder) shortCircuit(e *ast.BinaryExpr) *ir.Value {
	rhs := b.f.NewBlock()
	join := b.f.NewBlock()

	x := b.expr(e.X)
	fromLhs := b.cur
	if b.cur == nil {
		fromLhs = b.f.NewBlock()
		b.cur = fromLhs
	}
	if e.Op == token.LAND {
		b.branchTo(x, rhs, join)
	} else {
		b.branchTo(x, join, rhs)
	}

	b.cur = rhs
	y := b.expr(e.Y)
	fromRhs := b.cur
	b.jumpTo(join)

	b.cur = join
	phi := b.f.NewValue(ir.OpPhi, ir.TBool)
	short := b.f.ConstBool(e.Op == token.LOR)
	phi.Args = b.f.ValueList(short, y)
	phi.Blocks = b.f.BlockList(fromLhs, fromRhs)
	join.AddPhi(phi)
	return phi
}

func (b *builder) call(e *ast.CallExpr) *ir.Value {
	sym := b.info.SymbolOf(e.Callee)
	if sym.Kind == types.SymBuiltin {
		return b.builtinCall(e, sym)
	}
	var argBuf [8]*ir.Value
	args := argBuf[:0]
	for _, a := range e.Args {
		args = append(args, b.expr(a))
	}
	call := b.f.NewValue(ir.OpCall, irType(sym.Sig.Result), args...)
	call.Sym = sym.Name
	return b.emit(call)
}

func (b *builder) builtinCall(e *ast.CallExpr, sym *types.Symbol) *ir.Value {
	switch sym.Name {
	case types.BuiltinPrint:
		var label string
		var argBuf [8]*ir.Value
		args := argBuf[:0]
		for i, a := range e.Args {
			if s, ok := a.(*ast.StringLit); ok && i == 0 {
				label = s.Value
				continue
			}
			args = append(args, b.expr(a))
		}
		p := b.f.NewValue(ir.OpPrint, ir.TVoid, args...)
		p.StrAux = label
		return b.emit(p)
	case types.BuiltinAssert:
		cond := b.expr(e.Args[0])
		a := b.f.NewValue(ir.OpAssert, ir.TVoid, cond)
		if len(e.Args) == 2 {
			if s, ok := e.Args[1].(*ast.StringLit); ok {
				a.StrAux = s.Value
			}
		}
		return b.emit(a)
	}
	panic("irbuild: unknown builtin " + sym.Name)
}

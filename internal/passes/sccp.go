package passes

// SCCP is sparse conditional constant propagation (Wegman–Zadeck): a
// three-level lattice (unknown → constant → varying) propagated over SSA
// edges together with branch-directed block reachability, so constants are
// found even through conditionally dead paths that straight folding misses.

import (
	"statefulcc/internal/ir"
)

// SCCP is the sparse conditional constant propagation pass.
type SCCP struct{ scratchUser }

// Name implements FuncPass.
func (*SCCP) Name() string { return "sccp" }

type latticeKind uint8

const (
	latUnknown latticeKind = iota // never executed / no information yet
	latConst
	latVarying
)

type lattice struct {
	kind latticeKind
	val  int64
}

// sccpState is the solver's working state, kept in the worker's Scratch.
type sccpState struct {
	f *ir.Func
	// val[v.ID] is the lattice cell of an instruction or phi.
	val []lattice
	// execEdge[2*b.ID+i] marks the edge along b's i-th successor slot
	// executable (a terminator has at most two).
	execEdge []bool
	execBlk  []bool // by block ID
	// The users of the value numbered id, in layout order, are
	// userList[userStart[id]:userStart[id+1]].
	userStart []int32
	userFill  []int32
	userList  []*ir.Value
	ssaWork   []*ir.Value
	flowWork  [][2]*ir.Block
}

// Run implements FuncPass.
func (p *SCCP) Run(f *ir.Func) bool {
	entry := f.Entry()
	if entry == nil {
		return false
	}
	sc := p.scratch()
	s := &sc.sccp
	s.f = f
	s.val = ir.Dense(s.val, f.NumValues())
	s.execEdge = ir.Dense(s.execEdge, 2*f.NumBlockIDs())
	s.execBlk = ir.Dense(s.execBlk, f.NumBlockIDs())
	s.ssaWork, s.flowWork = s.ssaWork[:0], s.flowWork[:0]
	s.indexUsers()

	s.markBlock(entry)
	for len(s.ssaWork) > 0 || len(s.flowWork) > 0 {
		for len(s.flowWork) > 0 {
			e := s.flowWork[len(s.flowWork)-1]
			s.flowWork = s.flowWork[:len(s.flowWork)-1]
			s.processEdge(e[0], e[1])
		}
		for len(s.ssaWork) > 0 {
			v := s.ssaWork[len(s.ssaWork)-1]
			s.ssaWork = s.ssaWork[:len(s.ssaWork)-1]
			if v.Block != nil && s.execBlk[v.Block.ID] {
				s.visit(v)
			}
		}
	}
	return s.rewrite(sc)
}

// indexUsers builds the users table by counting sort: one scan counts each
// value's uses, a second places the users in layout order. Constants have
// no cell to lower and no meaningful ID, so they are not indexed.
func (s *sccpState) indexUsers() {
	n := s.f.NumValues()
	s.userStart = ir.Dense(s.userStart, n+1)
	count := s.userStart[1:]
	for _, b := range s.f.Blocks {
		for _, v := range b.Phis {
			countUses(count, v)
		}
		for _, v := range b.Instrs {
			countUses(count, v)
		}
		if b.Term != nil {
			countUses(count, b.Term)
		}
	}
	for i := 0; i < n; i++ {
		s.userStart[i+1] += s.userStart[i]
	}
	s.userFill = append(s.userFill[:0], s.userStart[:n]...)
	s.userList = ir.Dense(s.userList, int(s.userStart[n]))
	for _, b := range s.f.Blocks {
		for _, v := range b.Phis {
			s.placeUser(v)
		}
		for _, v := range b.Instrs {
			s.placeUser(v)
		}
		if b.Term != nil {
			s.placeUser(b.Term)
		}
	}
}

func countUses(count []int32, v *ir.Value) {
	for _, a := range v.Args {
		if a.Op != ir.OpConst {
			count[a.ID]++
		}
	}
}

func (s *sccpState) placeUser(v *ir.Value) {
	for _, a := range v.Args {
		if a.Op != ir.OpConst {
			s.userList[s.userFill[a.ID]] = v
			s.userFill[a.ID]++
		}
	}
}

func (s *sccpState) lookup(v *ir.Value) lattice {
	switch v.Op {
	case ir.OpConst:
		return lattice{latConst, v.Aux}
	case ir.OpParam:
		return lattice{kind: latVarying}
	}
	return s.val[v.ID]
}

// lower updates v's lattice downwards, queueing its users when it changed.
func (s *sccpState) lower(v *ir.Value, l lattice) {
	old := s.val[v.ID]
	if old.kind == l.kind && (l.kind != latConst || old.val == l.val) {
		return
	}
	// The lattice only moves down: unknown → const → varying.
	if old.kind == latVarying || (old.kind == latConst && l.kind == latConst && old.val != l.val) {
		l = lattice{kind: latVarying}
		if old.kind == latVarying {
			return
		}
	}
	s.val[v.ID] = l
	s.ssaWork = append(s.ssaWork, s.userList[s.userStart[v.ID]:s.userStart[v.ID+1]]...)
}

func (s *sccpState) markBlock(b *ir.Block) {
	if s.execBlk[b.ID] {
		return
	}
	s.execBlk[b.ID] = true
	for _, phi := range b.Phis {
		s.visit(phi)
	}
	for _, v := range b.Instrs {
		s.visit(v)
	}
	if b.Term != nil {
		s.visit(b.Term)
	}
}

// edgeExecutable reports whether some edge from → to is marked.
func (s *sccpState) edgeExecutable(from, to *ir.Block) bool {
	for i, t := range from.Succs() {
		if t == to && s.execEdge[2*from.ID+i] {
			return true
		}
	}
	return false
}

func (s *sccpState) markEdge(from, to *ir.Block) {
	if s.edgeExecutable(from, to) {
		return
	}
	for i, t := range from.Succs() {
		if t == to {
			s.execEdge[2*from.ID+i] = true
			break
		}
	}
	s.flowWork = append(s.flowWork, [2]*ir.Block{from, to})
}

func (s *sccpState) processEdge(from, to *ir.Block) {
	if s.execBlk[to.ID] {
		// Re-evaluate phis: a new incoming edge can change their meet.
		for _, phi := range to.Phis {
			s.visit(phi)
		}
		return
	}
	s.markBlock(to)
}

func (s *sccpState) visit(v *ir.Value) {
	switch v.Op {
	case ir.OpPhi:
		s.visitPhi(v)
	case ir.OpJump:
		s.markEdge(v.Block, v.Blocks[0])
	case ir.OpBranch:
		c := s.lookup(v.Args[0])
		switch c.kind {
		case latConst:
			if c.val != 0 {
				s.markEdge(v.Block, v.Blocks[0])
			} else {
				s.markEdge(v.Block, v.Blocks[1])
			}
		case latVarying:
			s.markEdge(v.Block, v.Blocks[0])
			s.markEdge(v.Block, v.Blocks[1])
		}
	case ir.OpRet, ir.OpStore, ir.OpPrint, ir.OpAssert:
		// No result.
	case ir.OpCall, ir.OpLoad, ir.OpAlloca, ir.OpIndexAddr, ir.OpGlobalAddr:
		s.lower(v, lattice{kind: latVarying})
	default:
		s.visitArith(v)
	}
}

func (s *sccpState) visitPhi(v *ir.Value) {
	res := lattice{kind: latUnknown}
	for i, a := range v.Args {
		if !s.edgeExecutable(v.Blocks[i], v.Block) {
			continue
		}
		al := s.lookup(a)
		switch al.kind {
		case latUnknown:
			// contributes nothing yet
		case latVarying:
			res = lattice{kind: latVarying}
		case latConst:
			switch res.kind {
			case latUnknown:
				res = al
			case latConst:
				if res.val != al.val {
					res = lattice{kind: latVarying}
				}
			}
		}
		if res.kind == latVarying {
			break
		}
	}
	s.lower(v, res)
}

func (s *sccpState) visitArith(v *ir.Value) {
	// Unary and binary pure arithmetic.
	switch len(v.Args) {
	case 1:
		a := s.lookup(v.Args[0])
		switch a.kind {
		case latVarying:
			s.lower(v, lattice{kind: latVarying})
		case latConst:
			if r, ok := ir.EvalUnary(v.Op, a.val); ok {
				s.lower(v, lattice{latConst, r})
			} else {
				s.lower(v, lattice{kind: latVarying})
			}
		}
	case 2:
		a, b := s.lookup(v.Args[0]), s.lookup(v.Args[1])
		if a.kind == latConst && b.kind == latConst {
			if r, ok := ir.EvalBinary(v.Op, a.val, b.val); ok {
				s.lower(v, lattice{latConst, r})
			} else {
				s.lower(v, lattice{kind: latVarying}) // division by zero traps
			}
			return
		}
		if a.kind == latVarying || b.kind == latVarying {
			s.lower(v, lattice{kind: latVarying})
		}
	}
}

// rewrite applies the solution: constant values are substituted, constant
// branches become jumps, and unreachable blocks are removed.
func (s *sccpState) rewrite(sc *Scratch) bool {
	repl, dead := sc.replTable(s.f), sc.flagTable(s.f)
	// fold marks v for replacement by its constant when the solution has
	// one. Loads and calls are never latConst, so every removed
	// instruction is a pure computation.
	fold := func(v *ir.Value) {
		if l := s.val[v.ID]; l.kind == latConst && v.Type != ir.TVoid {
			repl[v.ID] = makeConst(s.f, l.val, v.Type)
			dead[v.ID] = true
		}
	}
	changed, replaced := false, false
	for _, b := range s.f.Blocks {
		if !s.execBlk[b.ID] {
			continue
		}
		for _, v := range b.Phis {
			fold(v)
		}
		for _, v := range b.Instrs {
			fold(v)
		}
		if b.RemovePhis(dead)+b.RemoveInstrs(dead) > 0 {
			changed, replaced = true, true
		}
		if b.Term != nil && b.Term.Op == ir.OpBranch {
			if c := s.lookup(b.Term.Args[0]); c.kind == latConst {
				taken := b.Term.Blocks[0]
				if c.val == 0 {
					taken = b.Term.Blocks[1]
				}
				replaceTermWithJump(b, taken)
				changed = true
			}
		}
	}
	if s.f.RemoveUnreachable() > 0 {
		changed = true
	}
	if replaced {
		s.f.ReplaceUses(repl)
	}
	return changed
}

package passes

// Mem2Reg promotes scalar allocas whose address never escapes into SSA
// values, inserting phi nodes at iterated dominance frontiers (Cytron et
// al.) and renaming loads/stores along the dominator tree. This is the pass
// that converts freshly lowered "memory form" IR into real SSA, so on a
// fresh compilation it is essentially always active — and on the IR it
// itself produced it is always dormant, a property the stateful pass
// manager's tests pin down.

import (
	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// Mem2Reg is the alloca-promotion pass.
type Mem2Reg struct{ scratchUser }

// Name implements FuncPass.
func (*Mem2Reg) Name() string { return "mem2reg" }

// promoter is mem2reg's working state. Candidate allocas are numbered
// 1..n in layout order; the per-candidate tables are indexed by that
// number (0 is unused) and Scratch.index maps an alloca — and, after phi
// placement, a phi placed for it — to the number.
type promoter struct {
	f   *ir.Func
	dom *analysis.DomTree
	num []int32 // Scratch.index

	allocas []*ir.Value
	bad     []bool    // address escapes: not promotable
	typ     []ir.Type // scalar type from the first load or store (TVoid: none seen)
	cur     []*ir.Value
	// Blocks storing to each candidate, in layout order, as linked lists
	// through defBlock/defNext (entry 0 is the list terminator).
	defHead, defTail []int32
	defBlock         []*ir.Block
	defNext          []int32

	placed    []*ir.Value // phis created by placement
	placedNum []int32     // … and the candidate each was placed for
	undo      []promoterUndo
	repl      []*ir.Value // Scratch.repl: dead load → value
	dead      []bool      // Scratch.flag: rewritten loads/stores and the allocas
}

type promoterUndo struct {
	num  int32
	prev *ir.Value
}

// Run implements FuncPass.
func (p *Mem2Reg) Run(f *ir.Func) bool {
	changed := f.RemoveUnreachable() > 0

	s := p.scratch()
	m := &s.mem2reg
	m.f = f
	if !m.findPromotable(s) {
		return changed
	}

	s.dom.Build(f)
	m.dom = &s.dom
	df := s.dom.Frontiers()

	// Phi placement at iterated dominance frontiers.
	hasPhi := ir.Dense(s.blockStamp, f.NumBlockIDs())
	s.blockStamp = hasPhi
	m.placed, m.placedNum = m.placed[:0], m.placedNum[:0]
	queue := s.blocks[:0]
	for k := 1; k < len(m.allocas); k++ {
		if m.bad[k] {
			continue
		}
		queue = queue[:0]
		for e := m.defHead[k]; e != 0; e = m.defNext[e] {
			queue = append(queue, m.defBlock[e])
		}
		for head := 0; head < len(queue); head++ {
			for _, fb := range df[queue[head].ID] {
				if hasPhi[fb.ID] == int32(k) {
					continue
				}
				hasPhi[fb.ID] = int32(k)
				// Renaming fills in one operand per predecessor.
				phi := f.NewPhi(m.scalarType(k), len(fb.Preds))
				fb.AddPhi(phi)
				m.placed = append(m.placed, phi)
				m.placedNum = append(m.placedNum, int32(k))
				queue = append(queue, fb)
			}
		}
	}
	s.blocks = queue
	m.num = ir.Grow(m.num, f.NumValues())
	s.index = m.num
	for i, phi := range m.placed {
		m.num[phi.ID] = m.placedNum[i]
	}

	// Renaming along the dominator tree.
	m.repl, m.dead = s.replTable(f), s.flagTable(f)
	m.cur = ir.Dense(m.cur, len(m.allocas))
	m.rename(f.Entry())

	// Substitute dead loads everywhere (resolving chains: a load replaced
	// by another load that is itself replaced), then delete the rewritten
	// loads/stores and the allocas themselves, one compaction per block.
	f.ReplaceUses(m.repl)
	for _, b := range f.Blocks {
		b.RemoveInstrs(m.dead)
	}
	return true
}

// findPromotable numbers the single-word allocas in layout order and, in a
// second scan, rules out those whose address is used by anything but the
// address operand of a load or store, recording for the rest their scalar
// type and the blocks that store to them. Reports whether any is left.
func (m *promoter) findPromotable(s *Scratch) bool {
	f := m.f
	m.num = s.indexTable(f)
	m.allocas = append(m.allocas[:0], nil)
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpAlloca && v.Aux == 1 {
				m.num[v.ID] = int32(len(m.allocas))
				m.allocas = append(m.allocas, v)
			}
		}
	}
	n := len(m.allocas)
	if n == 1 {
		return false
	}
	m.bad = ir.Dense(m.bad, n)
	m.typ = ir.Dense(m.typ, n)
	m.defHead = ir.Dense(m.defHead, n)
	m.defTail = ir.Dense(m.defTail, n)
	m.defBlock = append(m.defBlock[:0], nil)
	m.defNext = append(m.defNext[:0], 0)

	f.ForEachValue(func(v *ir.Value) {
		for i, a := range v.Args {
			if a.Op != ir.OpAlloca {
				continue
			}
			k := m.num[a.ID]
			if k == 0 {
				continue
			}
			switch {
			case v.Op == ir.OpLoad && i == 0:
				if m.typ[k] == ir.TVoid {
					m.typ[k] = v.Type
				}
			case v.Op == ir.OpStore && i == 0:
				if m.typ[k] == ir.TVoid {
					m.typ[k] = v.Args[1].Type
				}
				if t := m.defTail[k]; t == 0 || m.defBlock[t] != v.Block {
					e := int32(len(m.defBlock))
					m.defBlock = append(m.defBlock, v.Block)
					m.defNext = append(m.defNext, 0)
					if t == 0 {
						m.defHead[k] = e
					} else {
						m.defNext[t] = e
					}
					m.defTail[k] = e
				}
			default:
				m.bad[k] = true
			}
		}
	})
	promotable := false
	for k := 1; k < n; k++ {
		if m.bad[k] {
			m.num[m.allocas[k].ID] = 0
		} else {
			promotable = true
		}
	}
	return promotable
}

// scalarType is the type of the value the alloca holds; untouched allocas
// default to int.
func (m *promoter) scalarType(k int) ir.Type {
	if t := m.typ[k]; t != ir.TVoid {
		return t
	}
	return ir.TInt
}

// promoted returns the candidate number of a promoted alloca, or of a phi
// placed for one, and 0 for any other value.
func (m *promoter) promoted(v *ir.Value, op ir.Op) int32 {
	if v.Op == op {
		return m.num[v.ID]
	}
	return 0
}

// top is the value the alloca holds at the current point of the walk.
func (m *promoter) top(k int32) *ir.Value {
	if v := m.cur[k]; v != nil {
		return v
	}
	// Uninitialized path: MiniC zero-initializes scalars, so this value
	// is unobservable; zero keeps the IR well-defined.
	if m.scalarType(int(k)) == ir.TBool {
		return m.f.ConstBool(false)
	}
	return m.f.ConstInt(0)
}

func (m *promoter) define(k int32, v *ir.Value) {
	m.undo = append(m.undo, promoterUndo{k, m.cur[k]})
	m.cur[k] = v
}

// rename rewrites b and the blocks it dominates.
func (m *promoter) rename(b *ir.Block) {
	mark := len(m.undo)
	for _, phi := range b.Phis {
		if k := m.promoted(phi, ir.OpPhi); k != 0 {
			m.define(k, phi)
		}
	}
	for _, v := range b.Instrs {
		switch v.Op {
		case ir.OpStore:
			if k := m.promoted(v.Args[0], ir.OpAlloca); k != 0 {
				m.define(k, v.Args[1])
				m.dead[v.ID] = true
			}
		case ir.OpLoad:
			if k := m.promoted(v.Args[0], ir.OpAlloca); k != 0 {
				m.repl[v.ID] = m.top(k)
				m.dead[v.ID] = true
			}
		case ir.OpAlloca:
			if m.num[v.ID] != 0 {
				m.dead[v.ID] = true
			}
		}
	}
	for _, s := range b.Succs() {
		for _, phi := range s.Phis {
			if k := m.promoted(phi, ir.OpPhi); k != 0 {
				phi.SetIncoming(b, m.top(k))
			}
		}
	}
	for _, c := range m.dom.Children(b) {
		m.rename(c)
	}
	for i := len(m.undo) - 1; i >= mark; i-- {
		m.cur[m.undo[i].num] = m.undo[i].prev
	}
	m.undo = m.undo[:mark]
}

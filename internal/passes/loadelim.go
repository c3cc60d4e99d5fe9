package passes

// LoadElim performs block-local redundant-load elimination and
// store-to-load forwarding on the memory accesses mem2reg cannot promote
// (array cells and globals):
//
//	x = a[i]; y = a[i];        → y reuses x
//	a[i] = v; x = a[i];        → x reuses v
//
// Soundness without alias analysis: the availability table is keyed by
// pointer *value* (the same SSA value ⇒ the same address), and any store
// invalidates everything except the stored pointer's own entry; calls
// invalidate everything (the callee may store globals). Availability never
// crosses block boundaries.

import (
	"statefulcc/internal/ir"
)

// LoadElim is the redundant-load elimination pass.
type LoadElim struct{ scratchUser }

// Name implements FuncPass.
func (*LoadElim) Name() string { return "loadelim" }

// Run implements FuncPass.
func (p *LoadElim) Run(f *ir.Func) bool {
	s := p.scratch()
	// avail[ptr.ID] is the current memory value behind ptr, valid while
	// epoch[ptr.ID] equals the running epoch; a store or call starts a new
	// epoch, which empties the table in O(1).
	s.values = ir.Dense(s.values, f.NumValues())
	avail, epoch, repl, dead := s.values, s.indexTable(f), s.replTable(f), s.flagTable(f)
	now := int32(0)

	changed := false
	for _, b := range f.Blocks {
		now++
		removed := false
		for _, v := range b.Instrs {
			// Operands replaced earlier in this run are rewritten before
			// they are looked at; the rest of the function catches up in
			// the closing ReplaceUses.
			for i, a := range v.Args {
				v.Args[i] = ir.Resolve(repl, a)
			}
			switch v.Op {
			case ir.OpLoad:
				ptr := v.Args[0]
				if ptr.Op == ir.OpConst {
					continue
				}
				if known := avail[ptr.ID]; epoch[ptr.ID] == now && known.Type == v.Type {
					repl[v.ID] = known
					dead[v.ID] = true
					removed = true
					continue // drop the load
				}
				avail[ptr.ID], epoch[ptr.ID] = v, now
			case ir.OpStore:
				// Any store may alias any tracked pointer except itself.
				now++
				if ptr := v.Args[0]; ptr.Op != ir.OpConst {
					avail[ptr.ID], epoch[ptr.ID] = v.Args[1], now
				}
			case ir.OpCall:
				now++
			}
		}
		if removed {
			b.RemoveInstrs(dead)
			changed = true
		}
	}
	if changed {
		f.ReplaceUses(repl)
	}
	return changed
}

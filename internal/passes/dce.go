package passes

// DCE removes instructions whose results are never used and that have no
// side effects, using mark-and-sweep from effectful roots so that dead phi
// cycles (mutually referencing phis with no outside user) are collected too.

import (
	"statefulcc/internal/ir"
)

// DCE is the dead code elimination pass.
type DCE struct{ scratchUser }

// Name implements FuncPass.
func (*DCE) Name() string { return "dce" }

// Run implements FuncPass.
func (p *DCE) Run(f *ir.Func) bool {
	s := p.scratch()
	// dead[v.ID] stays set for exactly the values the mark phase never
	// reaches. Constants and parameters are not in blocks, so they need no
	// mark (and a constant's ID is not an index, see ir.Dense).
	dead := s.flagTable(f)
	work := s.values[:0]
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			dead[v.ID] = true
		}
		for _, v := range b.Instrs {
			if v.Op.HasSideEffects() {
				work = append(work, v)
			} else {
				dead[v.ID] = true
			}
		}
		if b.Term != nil {
			work = append(work, b.Term)
		}
	}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range v.Args {
			if a.Block != nil && dead[a.ID] {
				dead[a.ID] = false
				work = append(work, a)
			}
		}
	}
	s.values = work

	changed := false
	for _, b := range f.Blocks {
		if b.RemoveInstrs(dead)+b.RemovePhis(dead) > 0 {
			changed = true
		}
	}
	return changed
}

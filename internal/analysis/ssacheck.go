package analysis

// VerifySSA: the dominance half of IR verification (structure is checked by
// ir.Verify). Separated into this package because it needs the dominator
// tree.

import (
	"fmt"

	"statefulcc/internal/ir"
)

// VerifySSA checks that every use of an SSA value is dominated by its
// definition: ordinary uses must be dominated by the defining instruction,
// and phi uses must be dominated at the end of the incoming block. It also
// checks that each value is defined once.
func VerifySSA(f *ir.Func) error {
	dom := BuildDomTree(f)

	// Dense tables by value ID. defs[id] is the placed value numbered id,
	// so an operand some other function numbered (or one never placed)
	// fails the identity check instead of being indexed.
	nv := f.NumValues()
	defs := make([]*ir.Value, nv)
	defBlock := make([]*ir.Block, nv)
	defIndex := make([]int, nv) // position within block; phis = -1
	place := func(v *ir.Value, b *ir.Block, index int, once bool) error {
		if v.ID < 0 || v.ID >= nv {
			return fmt.Errorf("func %s: v%d is numbered past the function's %d value IDs", f.Name, v.ID, nv)
		}
		if once && defs[v.ID] != nil {
			return fmt.Errorf("func %s: v%d defined twice", f.Name, v.ID)
		}
		defs[v.ID], defBlock[v.ID], defIndex[v.ID] = v, b, index
		return nil
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			if err := place(v, b, -1, true); err != nil {
				return err
			}
		}
		for i, v := range b.Instrs {
			if err := place(v, b, i, true); err != nil {
				return err
			}
		}
		if b.Term != nil {
			if err := place(b.Term, b, len(b.Instrs), false); err != nil {
				return err
			}
		}
	}

	// dominatesUse reports whether def (an instruction/phi) dominates a use
	// at position (useBlock, useIndex).
	dominatesUse := func(def *ir.Value, useBlock *ir.Block, useIndex int) bool {
		if def.Op == ir.OpConst || def.Op == ir.OpParam {
			return true
		}
		if def.ID < 0 || def.ID >= nv || defs[def.ID] != def {
			return false // defined nowhere (foreign value)
		}
		db := defBlock[def.ID]
		if db == useBlock {
			return defIndex[def.ID] < useIndex
		}
		return dom.StrictlyDominates(db, useBlock)
	}

	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue // unreachable code may be malformed until simplifycfg runs
		}
		for _, phi := range b.Phis {
			for i, a := range phi.Args {
				in := phi.Blocks[i]
				if a.Op == ir.OpConst || a.Op == ir.OpParam {
					continue
				}
				if !dom.Reachable(in) {
					continue
				}
				// Operand must dominate the end of the incoming block.
				if !dominatesUse(a, in, len(in.Instrs)+1) {
					return fmt.Errorf("func %s: phi v%d operand v%d not available at end of %s",
						f.Name, phi.ID, a.ID, in.Name())
				}
			}
		}
		for i, v := range b.Instrs {
			for _, a := range v.Args {
				if a.Op == ir.OpConst || a.Op == ir.OpParam {
					continue
				}
				if !dominatesUse(a, b, i) {
					return fmt.Errorf("func %s: %s in %s uses v%d before definition",
						f.Name, v.LongString(), b.Name(), a.ID)
				}
			}
		}
		if b.Term != nil {
			for _, a := range b.Term.Args {
				if a.Op == ir.OpConst || a.Op == ir.OpParam {
					continue
				}
				if !dominatesUse(a, b, len(b.Instrs)) {
					return fmt.Errorf("func %s: terminator of %s uses v%d before definition",
						f.Name, b.Name(), a.ID)
				}
			}
		}
	}
	return nil
}

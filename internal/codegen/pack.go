package codegen

// Frame-slot packing: a liveness-driven greedy coloring that lets SSA
// values with disjoint lifetimes share frame slots, shrinking VM frames
// (the backend analogue of register allocation's spill-slot coalescing).
//
// Interference is built from a backward scan per block: a definition
// interferes with everything live at its program point. Phi values get
// three conservative extras — the live-in set of their block, their sibling
// phis, and the live-out set of every predecessor — because their slot is
// written by the parallel-copy sequence on incoming edges. Parameter slots
// are fixed by the calling convention and never reused (the liveness
// analysis does not track parameters).

import (
	"math/bits"

	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// packColors assigns each value-producing instruction a frame slot, with
// parameters pre-colored 0..n-1, writing the coloring to c.slotOf (slot
// plus one, by value ID). Returns the number of slots used.
func (c *fnCompiler) packColors() int32 {
	f := c.f
	lv := &c.live
	lv.Compute(f)
	nv := f.NumValues()
	words := (nv + 63) / 64

	// Interference adjacency: row id is a bitset over value IDs.
	c.adj = ir.Dense(c.adj, nv*words)
	adj := c.adj
	row := func(id int) analysis.BitSet { return adj[id*words : (id+1)*words] }
	addEdge := func(a, b int) {
		if a != b {
			row(a).Add(b)
			row(b).Add(a)
		}
	}
	interfereWithSet := func(id int, set analysis.BitSet) {
		for i, w := range set {
			for ; w != 0; w &= w - 1 {
				addEdge(id, i*64+bits.TrailingZeros64(w))
			}
		}
	}

	producesValue := func(v *ir.Value) bool { return v.Type != ir.TVoid }

	live := analysis.BitSet(ir.Dense(c.liveNow, words))
	c.liveNow = live
	for _, b := range f.Blocks {
		// Phi extras: live-in of the block, sibling phis, preds' live-out.
		for _, phi := range b.Phis {
			interfereWithSet(phi.ID, lv.LiveIn[b.ID])
			for _, other := range b.Phis {
				addEdge(phi.ID, other.ID)
			}
			for _, p := range b.Preds {
				interfereWithSet(phi.ID, lv.LiveOut[p.ID])
			}
		}
		// Backward scan for ordinary definitions.
		copy(live, lv.LiveOut[b.ID])
		scan := func(v *ir.Value) {
			if producesValue(v) {
				interfereWithSet(v.ID, live)
				live.Remove(v.ID)
			}
			for _, a := range v.Args {
				if a.Op != ir.OpConst && a.Op != ir.OpParam {
					live.Add(a.ID)
				}
			}
		}
		if b.Term != nil {
			scan(b.Term)
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			scan(b.Instrs[i])
		}
	}

	slotOf := c.slotOf
	nParams := int32(len(f.Params))
	for i, p := range f.Params {
		slotOf[p.ID] = int32(i) + 1
	}
	maxColor := nParams - 1

	// Color in deterministic layout order; smallest color not used by any
	// neighbor, never reusing the reserved parameter slots. colorUsed[k]
	// holding the current stamp marks color k taken.
	used := ir.Dense(c.colorUsed, int(nParams)+1)
	stamp := int32(0)
	assign := func(v *ir.Value) {
		stamp++
		for i, w := range row(v.ID) {
			for ; w != 0; w &= w - 1 {
				if s := slotOf[i*64+bits.TrailingZeros64(w)]; s != 0 {
					used[s-1] = stamp
				}
			}
		}
		k := nParams
		for used[k] == stamp {
			k++
		}
		slotOf[v.ID] = k + 1
		if k > maxColor {
			maxColor = k
			used = ir.Grow(used, int(k)+2)
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			assign(v)
		}
		for _, v := range b.Instrs {
			if producesValue(v) {
				assign(v)
			}
		}
	}
	c.colorUsed = used
	return maxColor + 1
}

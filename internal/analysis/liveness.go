package analysis

// Backward liveness over SSA values, used by codegen's frame-slot packing
// and available as a general analysis.

import (
	"statefulcc/internal/ir"
)

// Liveness holds per-block live-in/live-out SSA value sets, keyed by value
// ID in dense bitsets. All sets are windows of one backing array that
// Compute reuses, so a worker keeps one Liveness in its scratch; the sets
// are valid until its next Compute.
type Liveness struct {
	fn      *ir.Func
	LiveIn  []BitSet // indexed by block ID
	LiveOut []BitSet

	bits []uint64
	walk dfsWalk
}

// BitSet is a fixed-capacity bitset over value IDs.
type BitSet []uint64

// NewBitSet returns a set able to hold n elements.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Has reports membership.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// Add inserts i, reporting whether the set changed.
func (s BitSet) Add(i int) bool {
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Remove deletes i.
func (s BitSet) Remove(i int) { s[i/64] &^= 1 << (uint(i) % 64) }

// UnionInto ors s into dst, reporting whether dst changed.
func (s BitSet) UnionInto(dst BitSet) bool {
	changed := false
	for i, w := range s {
		if dst[i]|w != dst[i] {
			dst[i] |= w
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s BitSet) Clone() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// Count returns the number of elements.
func (s BitSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Release drops the analysis's references into the IR (see ir.Wipe).
func (lv *Liveness) Release() {
	lv.fn = nil
	ir.Wipe(lv.walk.order)
}

// ComputeLiveness runs liveness over f in a fresh Liveness.
func ComputeLiveness(f *ir.Func) *Liveness {
	lv := &Liveness{}
	lv.Compute(f)
	return lv
}

// Compute runs iterative backward liveness to a fixed point, in place.
// Phi operands are treated as live-out of the corresponding predecessor
// (the standard SSA convention), not live-in of the phi's block.
func (lv *Liveness) Compute(f *ir.Func) {
	nb := f.NumBlockIDs()
	words := (f.NumValues() + 63) / 64
	lv.fn = f
	lv.LiveIn = ir.Dense(lv.LiveIn, nb)
	lv.LiveOut = ir.Dense(lv.LiveOut, nb)
	lv.bits = ir.Dense(lv.bits, (2*len(f.Blocks)+1)*words)
	window := func(i int) BitSet { return lv.bits[i*words : (i+1)*words : (i+1)*words] }
	for i, b := range f.Blocks {
		lv.LiveIn[b.ID] = window(2 * i)
		lv.LiveOut[b.ID] = window(2*i + 1)
	}
	tmp := window(2 * len(f.Blocks))

	// Iterate in postorder until stable (backward problem).
	po := lv.walk.postorder(f)
	changed := true
	for changed {
		changed = false
		for _, b := range po {
			out := lv.LiveOut[b.ID]
			// live-out = union over successors of (live-in(s) minus s's phis,
			// plus the phi operands flowing along this edge).
			for _, s := range b.Succs() {
				copy(tmp, lv.LiveIn[s.ID])
				for _, phi := range s.Phis {
					tmp.Remove(phi.ID)
				}
				if tmp.UnionInto(out) {
					changed = true
				}
				for _, phi := range s.Phis {
					if in := phi.Incoming(b); in != nil && trackable(in) {
						if out.Add(in.ID) {
							changed = true
						}
					}
				}
			}
			// live-in = (live-out minus defs) plus uses, scanned backwards.
			copy(tmp, out)
			if b.Term != nil {
				stepLive(tmp, b.Term)
			}
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				stepLive(tmp, b.Instrs[i])
			}
			for _, phi := range b.Phis {
				tmp.Remove(phi.ID)
			}
			if tmp.UnionInto(lv.LiveIn[b.ID]) {
				changed = true
			}
		}
	}
}

// trackable reports whether liveness tracks the value (instructions and
// phis; constants and params are rematerializable/always live).
func trackable(v *ir.Value) bool {
	return v.Op != ir.OpConst && v.Op != ir.OpParam
}

func stepLive(set BitSet, v *ir.Value) {
	if v.Type != ir.TVoid {
		set.Remove(v.ID)
	}
	for _, a := range v.Args {
		if trackable(a) {
			set.Add(a.ID)
		}
	}
}

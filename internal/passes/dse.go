package passes

// DSE removes stores that can never be observed. Two cases are handled,
// both restricted to allocas whose address does not escape (address used
// only by load/store/indexaddr):
//
//  1. Write-only allocas: no load ever reads the alloca or any address
//     derived from it, so every store to it — and the alloca itself — dies.
//
//  2. Overwritten stores: within one block, a store to the same scalar
//     alloca address with no intervening load or call kills the earlier
//     store.

import (
	"statefulcc/internal/ir"
)

// DSE is the dead store elimination pass.
type DSE struct{ scratchUser }

// Name implements FuncPass.
func (*DSE) Name() string { return "dse" }

// Run implements FuncPass.
func (p *DSE) Run(f *ir.Func) bool {
	s := p.scratch()
	// Both steps only delete stores, which changes no alloca's
	// classification, so one analysis serves them.
	root, infos := analyzeAllocas(f, s)
	if len(infos) == 1 {
		return false
	}
	dead := s.flagTable(f)
	changed := false
	if removeWriteOnlyAllocas(f, root, infos, dead) {
		changed = true
	}
	if removeOverwrittenStores(f, s, root, infos, dead) {
		changed = true
	}
	return changed
}

// allocaInfo classifies how one alloca's address flows.
type allocaInfo struct {
	escaped bool
	loaded  bool
	// lastStore is the position in the block being scanned of the most
	// recent store to the alloca that nothing has observed yet, plus one.
	lastStore int
}

// analyzeAllocas numbers the function's allocas 1..n and classifies each.
// root[v.ID] is the number of the alloca whose address v is or derives
// from through indexaddr (0: none) — a pointer has at most one root — and
// infos[k] describes alloca k.
func analyzeAllocas(f *ir.Func, s *Scratch) (root []int32, infos []allocaInfo) {
	root = s.indexTable(f)
	infos = append(s.dse[:0], allocaInfo{})
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpAlloca {
				root[v.ID] = int32(len(infos))
				infos = append(infos, allocaInfo{})
			}
		}
	}
	s.dse = infos
	if len(infos) == 1 {
		return root, infos
	}
	// Propagate derived pointers (indexaddr chains are at most one level in
	// MiniC, but iterate for safety).
	for grew := true; grew; {
		grew = false
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op == ir.OpIndexAddr && root[v.ID] == 0 {
					if r := rootOf(root, v.Args[0]); r != 0 {
						root[v.ID] = r
						grew = true
					}
				}
			}
		}
	}
	// Classify uses.
	f.ForEachValue(func(v *ir.Value) {
		for i, a := range v.Args {
			r := rootOf(root, a)
			if r == 0 {
				continue
			}
			switch {
			case v.Op == ir.OpLoad && i == 0:
				infos[r].loaded = true
			case v.Op == ir.OpStore && i == 0:
				// a pure write
			case v.Op == ir.OpIndexAddr && i == 0:
				// address derivation, already tracked
			default:
				infos[r].escaped = true
			}
		}
	})
	return root, infos
}

// rootOf returns the number of the alloca that pointer a derives from.
func rootOf(root []int32, a *ir.Value) int32 {
	if a.Op == ir.OpAlloca || a.Op == ir.OpIndexAddr {
		return root[a.ID]
	}
	return 0
}

func removeWriteOnlyAllocas(f *ir.Func, root []int32, infos []allocaInfo, dead []bool) bool {
	changed := false
	for _, b := range f.Blocks {
		removed := false
		for _, v := range b.Instrs {
			if v.Op != ir.OpStore {
				continue
			}
			if r := rootOf(root, v.Args[0]); r != 0 && !infos[r].loaded && !infos[r].escaped {
				dead[v.ID] = true
				removed = true
			}
		}
		if removed {
			b.RemoveInstrs(dead)
			changed = true
		}
	}
	// The allocas and their indexaddrs are now dead; leave them to DCE
	// (indexaddr is marked effectful for bounds checks, but a bounds check
	// on a never-read array is still required? No: the check's trap is an
	// observable effect, so indexaddrs must stay. Only stores were removed.)
	return changed
}

// removeOverwrittenStores kills stores overwritten in the same block before
// any possible read. Conservative kill set: any load, call, or derived
// address use between the two stores keeps the earlier one.
func removeOverwrittenStores(f *ir.Func, s *Scratch, root []int32, infos []allocaInfo, dead []bool) bool {
	// pending lists the allocas with an unobserved store in the block being
	// scanned (infos[k].lastStore != 0), so that a call or the end of the
	// block forgets them without a sweep over every alloca.
	pending := s.nums[:0]
	forget := func() {
		for _, k := range pending {
			infos[k].lastStore = 0
		}
		pending = pending[:0]
	}
	changed := false
	for _, b := range f.Blocks {
		removed := false
		for i, v := range b.Instrs {
			switch v.Op {
			case ir.OpStore:
				ptr := v.Args[0]
				if ptr.Op != ir.OpAlloca || ptr.Aux != 1 {
					continue
				}
				k := root[ptr.ID]
				if k == 0 || infos[k].escaped {
					continue
				}
				if prev := infos[k].lastStore; prev != 0 {
					dead[b.Instrs[prev-1].ID] = true
					removed = true
				} else {
					pending = append(pending, k)
				}
				infos[k].lastStore = i + 1
			case ir.OpLoad:
				// A load may read the alloca whose address it names; clear
				// the matching pending store.
				if k := rootOf(root, v.Args[0]); k != 0 {
					infos[k].lastStore = 0
				}
			case ir.OpCall:
				// Calls cannot read local allocas in MiniC (addresses never
				// escape as values), but stay conservative anyway.
				forget()
			}
		}
		forget()
		if removed {
			b.RemoveInstrs(dead)
			changed = true
		}
	}
	s.nums = pending
	return changed
}

package ir

// This file implements IR cloning: whole-function deep copies (used by the
// verification harness and the full-IR caching baseline) and region cloning
// with value remapping (used by the inliner and the loop unroller).

// CloneFunc returns a deep copy of f with fresh value and block identities.
// The copy belongs to the same module pointer but is not inserted into it,
// and its IR sits on a slab of its own, not the module's.
func CloneFunc(f *Func) *Func { return cloneFunc(f, nil) }

// cloneFunc is CloneFunc with the copy's IR cut from mem.
func cloneFunc(f *Func, mem *slab) *Func {
	g := &Func{
		Name:    f.Name,
		Module:  f.Module,
		Result:  f.Result,
		Private: f.Private,
		mem:     mem,
	}
	var cm CloneMap
	cm.Reset(f)
	if len(f.Params) > 0 {
		g.Params = make([]*Value, len(f.Params))
	}
	for i, p := range f.Params {
		np := g.newValue()
		np.Op, np.Type, np.Aux = OpParam, p.Type, p.Aux
		g.Params[i] = np
		cm.Values[p.ID] = np
	}
	CloneBlocksInto(g, f.Blocks, &cm)
	return g
}

// CloneMap is the old→new remap of one CloneBlocksInto call: dense tables
// indexed by the *source* function's value and block IDs (the destination
// may be another function, as when inlining). The zero value is ready for
// Reset; a pass keeps one in its worker's scratch.
type CloneMap struct {
	// Values[id] is what the source value numbered id maps to, nil for
	// itself. Callers seed substitutions here before cloning.
	Values []*Value
	// Blocks[id] is the clone of the source block numbered id, nil for a
	// block outside the cloned region.
	Blocks []*Block
	// seeded marks region values the caller substituted (not cloned).
	seeded []bool
}

// Reset empties the map and sizes it for cloning blocks of src.
func (cm *CloneMap) Reset(src *Func) {
	cm.Values = Dense(cm.Values, src.NumValues())
	cm.Blocks = Dense(cm.Blocks, src.NumBlockIDs())
	cm.seeded = Dense(cm.seeded, src.NumValues())
}

// Release drops the map's references into the IR (see Wipe).
func (cm *CloneMap) Release() {
	Wipe(cm.Values)
	Wipe(cm.Blocks)
}

// Value returns what source value v maps to (v itself when unmapped;
// constants are shared, never remapped).
func (cm *CloneMap) Value(v *Value) *Value {
	if v.Op != OpConst && v.ID < len(cm.Values) {
		if nv := cm.Values[v.ID]; nv != nil {
			return nv
		}
	}
	return v
}

// Block returns the clone of source block b (b itself outside the region).
func (cm *CloneMap) Block(b *Block) *Block {
	if b.ID < len(cm.Blocks) {
		if nb := cm.Blocks[b.ID]; nb != nil {
			return nb
		}
	}
	return b
}

// CloneBlocksInto clones the given blocks into dst, remapping operands via
// cm. On entry cm (Reset for the blocks' function) must hold mappings for
// values defined outside the cloned region that should be substituted (e.g.
// callee params → call arguments); values defined inside the region get
// fresh clones added to cm; any other operand maps to itself. A region
// value pre-seeded in cm is substituted instead of cloned — the unroller
// uses this to replace a loop header's phis with the current iteration's
// values. Block operands that point inside the region are remapped; edges
// leaving the region keep their original targets (and those targets gain
// predecessor entries for the clones).
//
// Afterwards cm.Blocks gives the clone of each original block.
func CloneBlocksInto(dst *Func, blocks []*Block, cm *CloneMap) {
	for _, b := range blocks {
		cm.Blocks[b.ID] = dst.NewBlock()
	}

	// Pass 1: create shell clones of every value defined in the region so
	// that forward references (phis) resolve. Pre-seeded values keep their
	// substitution and are not cloned.
	cloneShell := func(v *Value) {
		if cm.Values[v.ID] != nil {
			cm.seeded[v.ID] = true
			return
		}
		nv := dst.newValue()
		nv.Op, nv.Type, nv.Aux, nv.Sym, nv.StrAux = v.Op, v.Type, v.Aux, v.Sym, v.StrAux
		cm.Values[v.ID] = nv
	}
	for _, b := range blocks {
		for _, v := range b.Phis {
			cloneShell(v)
		}
		for _, v := range b.Instrs {
			cloneShell(v)
		}
		if b.Term != nil {
			cloneShell(b.Term)
		}
	}

	// Pass 2: fill operands and attach clones to their blocks. Pre-seeded
	// values were substituted, not cloned, so they are skipped here.
	cloneArgs := func(nv, v *Value) {
		if len(v.Args) == 0 {
			return
		}
		nv.Args = cut(&dst.slab().valPtrs, len(v.Args))
		for i, a := range v.Args {
			nv.Args[i] = cm.Value(a)
		}
	}
	cloneBlocks := func(list []*Block) []*Block {
		if len(list) == 0 {
			return nil
		}
		out := cut(&dst.slab().blkPtrs, len(list))
		for i, b := range list {
			out[i] = cm.Block(b)
		}
		return out
	}
	for _, b := range blocks {
		nb := cm.Blocks[b.ID]
		nb.Instrs = cut(&dst.slab().valPtrs, len(b.Instrs))[:0]
		for _, v := range b.Phis {
			if cm.seeded[v.ID] {
				continue
			}
			nv := cm.Values[v.ID]
			cloneArgs(nv, v)
			nv.Blocks = cloneBlocks(v.Blocks)
			nb.AddPhi(nv)
		}
		for _, v := range b.Instrs {
			if cm.seeded[v.ID] {
				continue
			}
			nv := cm.Values[v.ID]
			cloneArgs(nv, v)
			nb.AddInstr(nv)
		}
		if b.Term != nil {
			nt := cm.Values[b.Term.ID]
			cloneArgs(nt, b.Term)
			nt.Blocks = cloneBlocks(b.Term.Blocks)
			nb.SetTerm(nt)
		}
	}
}

// CloneModule deep-copies a whole module, used to snapshot IR for the
// stateful-vs-stateless verification harness.
func CloneModule(m *Module) *Module {
	nm := &Module{Unit: m.Unit}
	nm.Externs = append(nm.Externs, m.Externs...)
	for _, g := range m.Globals {
		gg := *g
		nm.Globals = append(nm.Globals, &gg)
	}
	for _, f := range m.Funcs {
		nf := cloneFunc(f, &nm.mem)
		nf.Module = nm
		nm.Funcs = append(nm.Funcs, nf)
	}
	return nm
}

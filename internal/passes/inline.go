package passes

// Inline is a bottom-up inliner: functions are visited in call-graph
// postorder (callees before callers), and call sites whose callee is
// defined in the same module, is not self-recursive, and is below the size
// threshold are replaced by a clone of the callee's body. Call sites
// introduced by inlining are not reconsidered within the same run, which
// bounds growth even for mutual recursion.

import (
	"statefulcc/internal/ir"
)

// Inline is the function-inlining pass.
type Inline struct {
	scratchUser
	// Threshold is the maximum callee size (phis + instructions) eligible
	// for inlining (default 24).
	Threshold int
}

// Name implements ModulePass.
func (*Inline) Name() string { return "inline" }

// RunModule implements ModulePass.
func (p *Inline) RunModule(m *ir.Module) bool {
	threshold := p.Threshold
	if threshold == 0 {
		threshold = 24
	}

	order := callGraphPostorder(m)
	changed := false
	for _, f := range order {
		// Snapshot the call sites before inlining mutates the function;
		// calls introduced by inlining are not reconsidered this run.
		var sites []*ir.Value
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op == ir.OpCall {
					sites = append(sites, v)
				}
			}
		}
		for _, call := range sites {
			callee := m.FindFunc(call.Sym)
			if callee == nil || callee == f {
				continue
			}
			if funcSize(callee) > threshold || selfRecursive(callee) {
				continue
			}
			// Earlier inlines may have moved the call into a continuation
			// block (or deleted it with an unreachable region).
			if call.Block == nil {
				continue
			}
			inlineCall(f, call.Block, call, callee, p.scratch())
			changed = true
		}
	}
	return changed
}

func funcSize(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Phis) + len(b.Instrs) + 1
	}
	return n
}

func selfRecursive(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			if v.Op == ir.OpCall && v.Sym == f.Name {
				return true
			}
		}
	}
	return false
}

// callGraphPostorder orders functions callees-first, deterministically
// (module order for roots, call-site order for edges).
func callGraphPostorder(m *ir.Module) []*ir.Func {
	state := make(map[*ir.Func]int) // 0 unvisited, 1 visiting, 2 done
	var order []*ir.Func
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		if state[f] != 0 {
			return
		}
		state[f] = 1
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op == ir.OpCall {
					if callee := m.FindFunc(v.Sym); callee != nil && state[callee] == 0 {
						visit(callee)
					}
				}
			}
		}
		state[f] = 2
		order = append(order, f)
	}
	for _, f := range m.Funcs {
		visit(f)
	}
	return order
}

// inlineCall splices a clone of callee into f at the given call site.
func inlineCall(f *ir.Func, b *ir.Block, call *ir.Value, callee *ir.Func, s *Scratch) {
	// Locate the call within the block.
	idx := -1
	for i, v := range b.Instrs {
		if v == call {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}

	// Split b after the call: everything below moves to cont, along with
	// b's terminator (successor bookkeeping transfers with it).
	cont := f.NewBlock()
	for _, v := range b.Instrs[idx+1:] {
		v.Block = cont
		cont.Instrs = append(cont.Instrs, v)
	}
	b.Instrs = b.Instrs[:idx] // drops the call itself
	term := b.Term
	b.Term = nil
	term.Block = cont
	cont.Term = term
	for _, s := range term.Blocks {
		for i, pd := range s.Preds {
			if pd == b {
				s.Preds[i] = cont
			}
		}
		for _, phi := range s.Phis {
			for i, in := range phi.Blocks {
				if in == b {
					phi.Blocks[i] = cont
				}
			}
		}
	}

	// Clone the callee with parameters bound to the call arguments.
	cm := &s.clone
	cm.Reset(callee)
	for i, p := range callee.Params {
		cm.Values[p.ID] = call.Args[i]
	}
	ir.CloneBlocksInto(f, callee.Blocks, cm)

	// Enter the inlined body.
	entry := cm.Blocks[callee.Entry().ID]
	j := f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = f.BlockList(entry)
	j.Block = b
	b.Term = j
	entry.Preds = append(entry.Preds, b)

	// Each cloned return becomes a jump to cont; returned values merge in a
	// phi when there is more than one return.
	type retSite struct {
		block *ir.Block
		val   *ir.Value
	}
	var rets []retSite
	for _, cb := range callee.Blocks {
		nb := cm.Blocks[cb.ID]
		if nb.Term != nil && nb.Term.Op == ir.OpRet {
			var rv *ir.Value
			if len(nb.Term.Args) == 1 {
				rv = nb.Term.Args[0]
			}
			nj := f.NewValue(ir.OpJump, ir.TVoid)
			nj.Blocks = f.BlockList(cont)
			nb.SetTerm(nj)
			rets = append(rets, retSite{nb, rv})
		}
	}

	// Substitute the call's value.
	if call.Type != ir.TVoid {
		var repl *ir.Value
		switch len(rets) {
		case 0:
			// No returning path: cont is unreachable; any value will do.
			repl = f.ConstInt(0)
		case 1:
			repl = rets[0].val
		default:
			phi := f.NewPhi(call.Type, len(rets))
			for _, r := range rets {
				phi.Args = append(phi.Args, r.val)
				phi.Blocks = append(phi.Blocks, r.block)
			}
			cont.AddPhi(phi)
			repl = phi
		}
		s.replTable(f)[call.ID] = repl
		f.ReplaceUses(s.repl)
	}

	// A callee with no returning path leaves cont unreachable; clean up so
	// the IR verifies.
	if len(rets) == 0 {
		f.RemoveUnreachable()
	}
}

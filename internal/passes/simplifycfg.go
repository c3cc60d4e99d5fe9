package passes

// SimplifyCFG canonicalizes control flow: unreachable-block removal,
// constant-branch folding, single-operand phi elimination, straight-line
// block merging, and empty-block threading. It iterates to a fixed point
// because each simplification tends to expose the next.

import (
	"statefulcc/internal/ir"
)

// SimplifyCFG is the control-flow cleanup pass.
type SimplifyCFG struct{ scratchUser }

// Name implements FuncPass.
func (*SimplifyCFG) Name() string { return "simplifycfg" }

// Run implements FuncPass.
func (p *SimplifyCFG) Run(f *ir.Func) bool {
	s := p.scratch()
	changed := false
	for {
		iter := false
		if f.RemoveUnreachable() > 0 {
			iter = true
		}
		if foldConstBranches(f) {
			iter = true
		}
		if removeTrivialPhis(f, s) {
			iter = true
		}
		if mergeStraightLine(f, s) {
			iter = true
		}
		if threadEmptyBlocks(f, s) {
			iter = true
		}
		if !iter {
			return changed
		}
		changed = true
	}
}

// foldConstBranches rewrites branches on constant conditions into jumps,
// and branches whose two targets coincide (when the target has no phis)
// into jumps.
func foldConstBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term
		if t == nil || t.Op != ir.OpBranch {
			continue
		}
		if c, ok := t.Args[0].IsConst(); ok {
			taken := t.Blocks[0]
			if c == 0 {
				taken = t.Blocks[1]
			}
			replaceTermWithJump(b, taken)
			changed = true
			continue
		}
		if t.Blocks[0] == t.Blocks[1] && len(t.Blocks[0].Phis) == 0 {
			replaceTermWithJump(b, t.Blocks[0])
			changed = true
		}
	}
	return changed
}

// replaceTermWithJump swaps b's terminator for an unconditional jump to
// target, preserving target's phi operands for b (SetTerm drops them while
// unhooking the old terminator's edges).
func replaceTermWithJump(b, target *ir.Block) {
	f := b.Func
	// SetTerm drops b's old edges, and with them the operands target's
	// phis hold for b; remember those to put them back on the new edge.
	var buf [8]*ir.Value
	vals := buf[:0]
	for _, phi := range target.Phis {
		vals = append(vals, phi.Incoming(b))
	}
	j := f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = f.BlockList(target)
	b.SetTerm(j)
	for i, phi := range target.Phis {
		if vals[i] != nil {
			phi.SetIncoming(b, vals[i])
		}
	}
}

// removeTrivialPhis replaces phis that have a single predecessor, or whose
// operands are all identical (ignoring self-references), with the operand.
func removeTrivialPhis(f *ir.Func, s *Scratch) bool {
	// The tables are sized on the first trivial phi: most runs find none.
	var repl []*ir.Value
	var dead []bool
	for _, b := range f.Blocks {
		removed := false
		for _, phi := range b.Phis {
			var uniq *ir.Value
			trivial := true
			for i, a := range phi.Args {
				// A phi removed earlier in this sweep is seen as the value
				// that replaced it.
				a = ir.Resolve(repl, a)
				phi.Args[i] = a
				if a == phi {
					continue
				}
				if sameValue(uniq, a) {
					continue
				}
				if uniq == nil {
					uniq = a
					continue
				}
				trivial = false
			}
			if !trivial || uniq == nil {
				continue
			}
			if repl == nil {
				repl, dead = s.replTable(f), s.flagTable(f)
			}
			repl[phi.ID] = uniq
			dead[phi.ID] = true
			removed = true
		}
		if removed {
			b.RemovePhis(dead)
		}
	}
	if repl == nil {
		return false
	}
	f.ReplaceUses(repl)
	return true
}

// sameValue treats equal constants as the same value even when they are
// distinct Value objects (irbuild creates constants per use site).
func sameValue(a, b *ir.Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.Op == ir.OpConst && b.Op == ir.OpConst {
		return a.Aux == b.Aux && a.Type == b.Type
	}
	return false
}

// mergeStraightLine merges b into its unique predecessor when that
// predecessor jumps only to b: pred's jump is replaced by b's body and
// terminator.
func mergeStraightLine(f *ir.Func, sc *Scratch) bool {
	var repl []*ir.Value // sized on the first phi folded away
	changed := false
	sc.blocks = append(sc.blocks[:0], f.Blocks...)
	for _, b := range sc.blocks {
		if b == f.Entry() || len(b.Preds) != 1 {
			continue
		}
		pred := b.Preds[0]
		if pred == b || pred.Term == nil || pred.Term.Op != ir.OpJump || len(pred.Succs()) != 1 {
			continue
		}
		// b has one pred, so its phis are single-operand; fold them first.
		for _, phi := range b.Phis {
			if repl == nil {
				repl = sc.replTable(f)
			}
			if r := ir.Resolve(repl, phi.Args[0]); r != phi {
				repl[phi.ID] = r
			}
			phi.Block = nil
		}
		b.Phis = nil
		// Move instructions into pred.
		for _, v := range b.Instrs {
			v.Block = pred
			pred.Instrs = append(pred.Instrs, v)
		}
		b.Instrs = nil
		// Transfer the terminator: retarget b's successors to treat pred
		// as the incoming block.
		term := b.Term
		for _, s := range term.Blocks {
			for i, p := range s.Preds {
				if p == b {
					s.Preds[i] = pred
				}
			}
			for _, phi := range s.Phis {
				for i, in := range phi.Blocks {
					if in == b {
						phi.Blocks[i] = pred
					}
				}
			}
		}
		b.Term = nil
		term.Block = pred
		// Detach pred's old jump and install b's terminator directly: the
		// successor pred-lists were already rewritten in place.
		pred.Term = term
		// Remove b from the function.
		for i, q := range f.Blocks {
			if q == b {
				f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
				break
			}
		}
		changed = true
	}
	if repl != nil {
		f.ReplaceUses(repl)
	}
	return changed
}

// threadEmptyBlocks redirects edges that pass through a block containing
// only a jump (no phis, no instructions) straight to its destination.
func threadEmptyBlocks(f *ir.Func, sc *Scratch) bool {
	changed := false
	sc.blocks = append(sc.blocks[:0], f.Blocks...)
	for _, b := range sc.blocks {
		if b == f.Entry() || len(b.Instrs) > 0 || len(b.Phis) > 0 {
			continue
		}
		if b.Term == nil || b.Term.Op != ir.OpJump {
			continue
		}
		dest := b.Term.Blocks[0]
		if dest == b {
			continue // infinite self-loop; leave it
		}
		// Redirect every pred of b to dest, provided this does not create a
		// duplicate edge into a block with phis (which our phi representation
		// cannot express) and the pred is not already a dest predecessor
		// with a conflicting phi value.
		var predBuf [8]*ir.Block
		var valBuf [8]*ir.Value
		for _, p := range append(predBuf[:0], b.Preds...) {
			if hasEdge(p, dest) && len(dest.Phis) > 0 {
				continue
			}
			// The value flowing from b into dest's phis must now flow from p.
			phiVals := valBuf[:0]
			for _, phi := range dest.Phis {
				phiVals = append(phiVals, phi.Incoming(b))
			}
			if !p.RedirectEdge(b, dest) {
				continue
			}
			for i, phi := range dest.Phis {
				phi.SetIncoming(p, phiVals[i])
			}
			changed = true
		}
	}
	if changed {
		f.RemoveUnreachable()
	}
	return changed
}

func hasEdge(from, to *ir.Block) bool {
	for _, s := range from.Succs() {
		if s == to {
			return true
		}
	}
	return false
}

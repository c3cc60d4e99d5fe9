package ir

// This file provides the mutation utilities passes are built from. They
// keep the CFG invariants (pred lists, phi operands) intact so that passes
// can compose without re-deriving structure.

// ForEachValue visits every instruction value in the function: phis, body
// instructions, and terminators, in layout order.
func (f *Func) ForEachValue(fn func(*Value)) {
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			fn(v)
		}
		for _, v := range b.Instrs {
			fn(v)
		}
		if b.Term != nil {
			fn(b.Term)
		}
	}
}

// RedirectEdge retargets the CFG edge from b to oldTo so that it points to
// newTo instead: the terminator's block operand is rewritten, oldTo loses b
// as a predecessor (its phis drop the operand), and newTo gains it. Phis in
// newTo that lack an operand for b must be fixed by the caller.
func (b *Block) RedirectEdge(oldTo, newTo *Block) bool {
	if b.Term == nil {
		return false
	}
	done := false
	for i, s := range b.Term.Blocks {
		if s == oldTo {
			b.Term.Blocks[i] = newTo
			oldTo.removePredEdge(b)
			newTo.Preds = append(newTo.Preds, b)
			done = true
			break // redirect a single occurrence
		}
	}
	return done
}

// dropOutEdges removes the block's terminator and with it every outgoing
// edge, fixing the successors' pred lists and phis.
func (b *Block) dropOutEdges() {
	if b.Term != nil {
		for _, s := range b.Term.Blocks {
			s.removePredEdge(b)
		}
		b.Term = nil
	}
}

// SplitEdge inserts a fresh block on the edge from b to succ, containing
// only a jump to succ. Phi operands in succ are retargeted to the new
// block. Returns the inserted block.
func (b *Block) SplitEdge(succ *Block) *Block {
	f := b.Func
	mid := f.NewBlock()
	// Retarget one occurrence of succ in b's terminator.
	for i, s := range b.Term.Blocks {
		if s == succ {
			b.Term.Blocks[i] = mid
			break
		}
	}
	// Fix pred lists.
	for i, p := range succ.Preds {
		if p == b {
			succ.Preds[i] = mid
			break
		}
	}
	mid.Preds = append(mid.Preds, b)
	// Retarget phi incoming blocks.
	for _, phi := range succ.Phis {
		for i, p := range phi.Blocks {
			if p == b {
				phi.Blocks[i] = mid
				break
			}
		}
	}
	// Terminator of mid: jump to succ. Installed directly (succ's pred list
	// was already fixed above, so SetTerm's bookkeeping would double-add).
	j := f.NewValue(OpJump, TVoid)
	j.Blocks = f.BlockList(succ)
	j.Block = mid
	mid.Term = j
	return mid
}

// HasCriticalEdge reports whether the edge b→succ is critical (b has
// multiple successors and succ multiple predecessors).
func (b *Block) HasCriticalEdge(succ *Block) bool {
	return len(b.Succs()) > 1 && len(succ.Preds) > 1
}

// NumUses counts uses of each value in the function, keyed by value ID.
// The result slice is indexed by Value.ID.
func (f *Func) NumUses() []int {
	uses := make([]int, f.NumValues())
	f.ForEachValue(func(v *Value) {
		for _, a := range v.Args {
			if a.ID < len(uses) {
				uses[a.ID]++
			}
		}
	})
	return uses
}

// Postorder returns the blocks reachable from entry in postorder.
func (f *Func) Postorder() []*Block {
	seen := make([]bool, f.NumBlockIDs())
	var order []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, s := range b.Succs() {
			visit(s)
		}
		order = append(order, b)
	}
	if e := f.Entry(); e != nil {
		visit(e)
	}
	return order
}

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder — the canonical forward-dataflow iteration order.
func (f *Func) ReversePostorder() []*Block {
	po := f.Postorder()
	for i, j := 0, len(po)-1; i < j; i, j = i+1, j-1 {
		po[i], po[j] = po[j], po[i]
	}
	return po
}

// markReachable sets seen[b.ID] for every block reachable from entry; seen
// must be zeroed and NumBlockIDs long, stack is working space.
func (f *Func) markReachable(seen []bool, stack []*Block) []bool {
	if e := f.Entry(); e != nil {
		stack = append(stack, e)
		seen[e.ID] = true
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// RemoveUnreachable deletes blocks not reachable from entry, fixing the
// phis of surviving blocks. Returns the number of blocks removed. Most
// passes open with it, so the common case — a function of ordinary size
// with nothing to remove — runs on stack buffers without allocating.
func (f *Func) RemoveUnreachable() int {
	var seenBuf [256]bool
	var stackBuf [32]*Block
	seen := seenBuf[:]
	if n := f.NumBlockIDs(); n <= len(seenBuf) {
		seen = seen[:n]
	} else {
		seen = make([]bool, n)
	}
	reach := f.markReachable(seen, stackBuf[:0])
	keep := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b.ID] {
			keep = append(keep, b)
		} else {
			b.dropOutEdges()
		}
	}
	n := len(f.Blocks) - len(keep)
	if n > 0 {
		clear(f.Blocks[len(keep):])
		f.Blocks = keep
	}
	return n
}

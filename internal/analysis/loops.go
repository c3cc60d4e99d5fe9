package analysis

// Natural-loop detection from back edges in the dominator tree, used by
// LICM and the unroller.

import (
	"sort"

	"statefulcc/internal/ir"
)

// Loop is one natural loop.
type Loop struct {
	// Header is the loop entry block (dominates all loop blocks).
	Header *ir.Block
	// Latches are the blocks with back edges to the header.
	Latches []*ir.Block
	// Blocks is the loop body including the header, in discovery order.
	Blocks []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Depth is 1 for outermost loops.
	Depth int
	// Exits are edges (From inside, To outside).
	Exits []LoopExit
}

// LoopExit is an edge leaving a loop.
type LoopExit struct {
	From *ir.Block // inside the loop
	To   *ir.Block // outside the loop
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *ir.Block) bool {
	for _, x := range l.Blocks {
		if x == b {
			return true
		}
	}
	return false
}

// LoopInfo holds all natural loops of a function. Like DomTree it is
// rebuilt in place (Find) by a worker that keeps one in its scratch: the
// Loop values, too, are reused, so they are valid until the next Find.
type LoopInfo struct {
	// Loops in header reverse-postorder (outer loops before inner).
	Loops []*Loop
	// loopOf[b.ID] is the innermost loop containing the block, or nil.
	loopOf []*Loop
	// byHeader[b.ID] is the loop headed by the block, or nil.
	byHeader []*Loop
	// member[b.ID] == stamp marks membership in the loop being examined.
	member []int32
	stack  []*ir.Block
	// pool holds every Loop this LoopInfo ever made; the first len(Loops)
	// are in use.
	pool []*Loop
}

// newLoop returns an empty loop headed by header, recycling one from an
// earlier Find (with its slices' backing arrays) when there is one.
func (li *LoopInfo) newLoop(header *ir.Block) *Loop {
	n := len(li.Loops)
	if n == len(li.pool) {
		li.pool = append(li.pool, &Loop{})
	}
	l := li.pool[n]
	*l = Loop{Header: header, Latches: l.Latches[:0], Blocks: append(l.Blocks[:0], header), Exits: l.Exits[:0]}
	li.Loops = append(li.Loops, l)
	return l
}

// Release drops the loops' references into the IR (see ir.Wipe).
func (li *LoopInfo) Release() {
	for _, l := range li.pool {
		ir.Wipe(l.Latches)
		ir.Wipe(l.Blocks)
		ir.Wipe(l.Exits)
		*l = Loop{Latches: l.Latches, Blocks: l.Blocks, Exits: l.Exits}
	}
	li.Loops = li.Loops[:0]
	ir.Wipe(li.stack)
}

// InnermostLoop returns the innermost loop containing b, or nil.
func (li *LoopInfo) InnermostLoop(b *ir.Block) *Loop {
	if b.ID < len(li.loopOf) {
		return li.loopOf[b.ID]
	}
	return nil
}

// Depth returns the loop nesting depth of block b (0 = not in a loop).
func (li *LoopInfo) Depth(b *ir.Block) int {
	if l := li.InnermostLoop(b); l != nil {
		return l.Depth
	}
	return 0
}

// FindLoops detects the natural loops of f in a fresh LoopInfo.
func FindLoops(f *ir.Func, dom *DomTree) *LoopInfo {
	li := &LoopInfo{}
	li.Find(f, dom)
	return li
}

// Find detects natural loops in place: for each back edge (latch → header
// where header dominates latch), the loop body is everything that reaches
// the latch without passing through the header. Loops sharing a header are
// merged, matching LLVM's convention.
func (li *LoopInfo) Find(f *ir.Func, dom *DomTree) {
	n := f.NumBlockIDs()
	li.Loops = li.Loops[:0]
	li.loopOf = ir.Dense(li.loopOf, n)
	li.byHeader = ir.Dense(li.byHeader, n)
	li.member = ir.Dense(li.member, n)
	stamp := int32(0)

	for _, b := range dom.ReversePostorder() {
		for _, s := range b.Succs() {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			header, latch := s, b
			loop := li.byHeader[header.ID]
			if loop == nil {
				loop = li.newLoop(header)
				li.byHeader[header.ID] = loop
			}
			loop.Latches = append(loop.Latches, latch)
			// Walk backwards from the latch collecting the body.
			stamp++
			for _, blk := range loop.Blocks {
				li.member[blk.ID] = stamp
			}
			stack := append(li.stack[:0], latch)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if li.member[x.ID] == stamp {
					continue
				}
				li.member[x.ID] = stamp
				loop.Blocks = append(loop.Blocks, x)
				for _, p := range x.Preds {
					if li.member[p.ID] != stamp && dom.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
			li.stack = stack
		}
	}
	if len(li.Loops) == 0 {
		return
	}

	// Sort loops by body size descending so that assigning loopOf in order
	// leaves the innermost (smallest) loop in place; nesting links follow.
	sort.SliceStable(li.Loops, func(i, j int) bool {
		return len(li.Loops[i].Blocks) > len(li.Loops[j].Blocks)
	})
	for _, l := range li.Loops {
		for _, b := range l.Blocks {
			li.loopOf[b.ID] = l
		}
	}
	// Parent/depth: a loop's parent is the innermost loop containing its
	// header that isn't itself. Compute by re-scanning containment.
	for _, l := range li.Loops {
		var parent *Loop
		for _, cand := range li.Loops {
			if cand == l || len(cand.Blocks) <= len(l.Blocks) {
				continue
			}
			if cand.Contains(l.Header) {
				if parent == nil || len(cand.Blocks) < len(parent.Blocks) {
					parent = cand
				}
			}
		}
		l.Parent = parent
	}
	for _, l := range li.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}

	// Exits.
	for _, l := range li.Loops {
		stamp++
		for _, b := range l.Blocks {
			li.member[b.ID] = stamp
		}
		for _, b := range l.Blocks {
			for _, s := range b.Succs() {
				if li.member[s.ID] != stamp {
					l.Exits = append(l.Exits, LoopExit{From: b, To: s})
				}
			}
		}
	}
}

// Preheader returns the unique block that enters the loop from outside via
// a single edge to the header, or nil when no such block exists. LICM
// creates one on demand.
func (l *Loop) Preheader() *ir.Block {
	var pre *ir.Block
	outside := 0
	for _, p := range l.Header.Preds {
		if !l.Contains(p) {
			pre = p
			outside++
		}
	}
	if outside == 1 && len(pre.Succs()) == 1 {
		return pre
	}
	return nil
}

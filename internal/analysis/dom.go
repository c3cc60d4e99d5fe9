// Package analysis provides the CFG analyses that optimization passes
// consume: dominator trees (Cooper–Harvey–Kennedy), dominance frontiers,
// natural-loop detection, liveness, and a dominance-based SSA verifier.
//
// All analyses are pure functions of the IR — they are recomputed on demand
// by passes rather than cached, which keeps the pass manager's invalidation
// story trivial and makes pass dormancy exactly "the IR did not change".
package analysis

import (
	"statefulcc/internal/ir"
)

// DomTree is the dominator tree of a function's reachable blocks. Its
// tables are dense, indexed by block ID, and survive from one Build to the
// next: a worker keeps one DomTree in its scratch and rebuilds it in place
// for every function, so a tree is valid only until its owner's next Build.
type DomTree struct {
	fn *ir.Func
	// idom[b.ID] is the immediate dominator; entry maps to itself.
	idom []*ir.Block
	// children[b.ID] lists the blocks immediately dominated by b.
	children [][]*ir.Block
	// pre and post order numbers of each block in the dominator tree,
	// giving O(1) Dominates queries.
	pre, post []int32
	// rpo[b.ID] is the reverse-postorder index (reachable blocks only).
	rpo []int32
	// order is the reverse postorder itself (the walk's storage, reversed).
	order []*ir.Block
	// df[b.ID] is b's dominance frontier (filled by Frontiers).
	df [][]*ir.Block

	walk  dfsWalk
	clock int32
}

// dfsWalk is the reusable working space of a depth-first walk of the CFG.
type dfsWalk struct {
	seen  []bool
	order []*ir.Block
}

// postorder returns the blocks reachable from f's entry in postorder — the
// order ir.Func.Postorder produces — in storage the next walk reuses.
func (w *dfsWalk) postorder(f *ir.Func) []*ir.Block {
	w.seen = ir.Dense(w.seen, f.NumBlockIDs())
	w.order = w.order[:0]
	if e := f.Entry(); e != nil {
		w.visit(e)
	}
	return w.order
}

func (w *dfsWalk) visit(b *ir.Block) {
	w.seen[b.ID] = true
	for _, s := range b.Succs() {
		if !w.seen[s.ID] {
			w.visit(s)
		}
	}
	w.order = append(w.order, b)
}

// emptyRows returns n empty per-block lists, keeping the backing arrays of
// the lists an earlier function filled (also those past the length of the
// function in between).
func emptyRows(rows [][]*ir.Block, n int) [][]*ir.Block {
	if n > cap(rows) {
		rows = append(rows[:cap(rows)], make([][]*ir.Block, n-cap(rows))...)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// wipeRows is ir.Wipe for per-block lists, keeping each list's memory.
func wipeRows(rows [][]*ir.Block) {
	for _, r := range rows[:cap(rows)] {
		ir.Wipe(r)
	}
}

// Release drops the tree's references into the IR (see ir.Wipe); it is
// invalid until the next Build.
func (t *DomTree) Release() {
	t.fn = nil
	ir.Wipe(t.idom)
	ir.Wipe(t.walk.order) // also t.order
	wipeRows(t.children)
	wipeRows(t.df)
}

// BuildDomTree computes the dominator tree of f in a fresh DomTree.
func BuildDomTree(f *ir.Func) *DomTree {
	t := &DomTree{}
	t.Build(f)
	return t
}

// Build recomputes the tree for f in place using the Cooper–Harvey–Kennedy
// iterative algorithm over reverse postorder.
func (t *DomTree) Build(f *ir.Func) {
	n := f.NumBlockIDs()
	t.fn = f
	t.idom = ir.Dense(t.idom, n)
	t.children = emptyRows(t.children, n)
	t.pre = ir.Dense(t.pre, n)
	t.post = ir.Dense(t.post, n)
	t.rpo = ir.Dense(t.rpo, n)

	t.order = t.walk.postorder(f)
	for i, j := 0, len(t.order)-1; i < j; i, j = i+1, j-1 {
		t.order[i], t.order[j] = t.order[j], t.order[i]
	}
	for i := range t.rpo {
		t.rpo[i] = -1
	}
	for i, b := range t.order {
		t.rpo[b.ID] = int32(i)
	}
	entry := f.Entry()
	if entry == nil {
		return
	}
	t.idom[entry.ID] = entry

	changed := true
	for changed {
		changed = false
		for _, b := range t.order[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if t.rpo[p.ID] < 0 || t.idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}

	// Build children lists and DFS numbering for O(1) dominance queries.
	for _, b := range t.order[1:] {
		if id := t.idom[b.ID]; id != nil {
			t.children[id.ID] = append(t.children[id.ID], b)
		}
	}
	t.clock = 0
	t.number(entry)
}

// number assigns the DFS interval of b's subtree of the dominator tree.
func (t *DomTree) number(b *ir.Block) {
	t.clock++
	t.pre[b.ID] = t.clock
	for _, c := range t.children[b.ID] {
		t.number(c)
	}
	t.clock++
	t.post[b.ID] = t.clock
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpo[a.ID] > t.rpo[b.ID] {
			a = t.idom[a.ID]
		}
		for t.rpo[b.ID] > t.rpo[a.ID] {
			b = t.idom[b.ID]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (the entry returns itself),
// or nil for unreachable blocks.
func (t *DomTree) Idom(b *ir.Block) *ir.Block { return t.idom[b.ID] }

// Children returns the blocks immediately dominated by b.
func (t *DomTree) Children(b *ir.Block) []*ir.Block { return t.children[b.ID] }

// Reachable reports whether b was reachable when the tree was built.
func (t *DomTree) Reachable(b *ir.Block) bool { return t.rpo[b.ID] >= 0 }

// Dominates reports whether a dominates b (reflexively).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	return t.pre[a.ID] <= t.pre[b.ID] && t.post[b.ID] <= t.post[a.ID]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// ReversePostorder returns the reachable blocks in reverse postorder.
func (t *DomTree) ReversePostorder() []*ir.Block { return t.order }

// Frontiers computes the dominance frontier of every block
// (Cytron et al.), used by mem2reg's phi placement. The result is indexed
// by block ID and shares the tree's storage.
func (t *DomTree) Frontiers() [][]*ir.Block {
	t.df = emptyRows(t.df, t.fn.NumBlockIDs())
	for _, b := range t.order {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !t.Reachable(p) {
				continue
			}
			// idom(b) dominates every reachable predecessor of b, so the
			// walk up the dominator tree from p always terminates at it.
			// All of b's insertions happen now, so a runner already holds
			// b exactly when b is the last block it received.
			for runner := p; runner != t.idom[b.ID]; runner = t.idom[runner.ID] {
				if df := t.df[runner.ID]; len(df) == 0 || df[len(df)-1] != b {
					t.df[runner.ID] = append(df, b)
				}
			}
		}
	}
	return t.df
}

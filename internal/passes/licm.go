package passes

// LICM hoists loop-invariant pure computations into a preheader block,
// creating the preheader when the loop lacks one. Memory reads are not
// hoisted (no alias analysis), and trapping div/rem are not hoisted either:
// a loop that executes zero iterations must not gain a trap the original
// program avoided. Pure ops cannot trap, so speculatively executing them in
// the preheader is always safe.

import (
	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// LICM is the loop-invariant code motion pass.
type LICM struct{ scratchUser }

// Name implements FuncPass.
func (*LICM) Name() string { return "licm" }

// Run implements FuncPass.
func (p *LICM) Run(f *ir.Func) bool {
	f.RemoveUnreachable()
	s := p.scratch()
	s.dom.Build(f)
	s.loops.Find(f, &s.dom)
	loops := s.loops.Loops
	if len(loops) == 0 {
		return false
	}
	changed := false
	// Loops are sorted by body size descending; iterating in reverse
	// processes inner loops first, letting invariants migrate outward one
	// level per LICM run of the enclosing loop.
	for i := len(loops) - 1; i >= 0; i-- {
		if hoistLoop(f, loops[i], s) {
			changed = true
		}
	}
	return changed
}

func hoistLoop(f *ir.Func, loop *analysis.Loop, s *Scratch) bool {
	// Hoisting for an inner loop may have created a preheader block and
	// phis, so the tables are sized anew for every loop.
	inLoop := ir.Dense(s.blockFlag, f.NumBlockIDs())
	s.blockFlag = inLoop
	for _, b := range loop.Blocks {
		inLoop[b.ID] = true
	}

	hoisted := s.flagTable(f)
	// hoistable: pure op whose operands are constants, params, values
	// defined outside the loop, or values already marked for hoisting.
	hoistable := func(v *ir.Value) bool {
		if !v.Op.IsPure() {
			return false
		}
		for _, a := range v.Args {
			if a.Op == ir.OpConst || a.Op == ir.OpParam {
				continue
			}
			if a.Block != nil && inLoop[a.Block.ID] && !hoisted[a.ID] {
				return false
			}
		}
		return true
	}

	// Fixed-point collection in deterministic (loop block list, layout)
	// order; rounds guarantee defs precede users in the hoist list.
	toHoist := s.values[:0]
	for {
		found := false
		for _, b := range loop.Blocks {
			for _, v := range b.Instrs {
				if !hoisted[v.ID] && hoistable(v) {
					hoisted[v.ID] = true
					toHoist = append(toHoist, v)
					found = true
				}
			}
		}
		if !found {
			break
		}
	}
	s.values = toHoist
	if len(toHoist) == 0 {
		return false
	}

	pre := ensurePreheader(f, loop)
	if pre == nil {
		return false
	}
	for _, b := range loop.Blocks {
		b.RemoveInstrs(hoisted)
	}
	for _, v := range toHoist {
		v.Block = pre
		pre.Instrs = append(pre.Instrs, v)
	}
	return true
}

// ensurePreheader returns the loop's preheader, creating one when needed by
// routing all outside entries through a fresh block. Returns nil when the
// header has no outside predecessors (cannot happen for natural loops in
// code lowered from structured sources).
func ensurePreheader(f *ir.Func, loop *analysis.Loop) *ir.Block {
	if p := loop.Preheader(); p != nil {
		return p
	}
	header := loop.Header
	var outside []*ir.Block
	for _, p := range header.Preds {
		if !loop.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 0 {
		return nil
	}
	if len(outside) == 1 {
		// A single outside pred that merely has other successors: splitting
		// the edge yields a dedicated preheader.
		return outside[0].SplitEdge(header)
	}

	// Multiple outside entries: build a preheader that merges them.
	// Header phis donate their outside operands to new preheader phis.
	pre := f.NewBlock()
	var prePhis []*ir.Value
	for _, phi := range header.Phis {
		nphi := f.NewPhi(phi.Type, len(outside))
		for _, p := range outside {
			nphi.Args = append(nphi.Args, phi.Incoming(p))
			nphi.Blocks = append(nphi.Blocks, p)
		}
		pre.AddPhi(nphi)
		prePhis = append(prePhis, nphi)
	}
	// Redirect each outside edge header→pre; this drops the header phis'
	// outside operands (already captured above) and fills pre.Preds.
	for _, p := range outside {
		p.RedirectEdge(header, pre)
	}
	// Terminate the preheader into the header and give every header phi a
	// single operand for the new edge: the corresponding preheader phi.
	j := f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = f.BlockList(header)
	pre.SetTerm(j)
	for i, phi := range header.Phis {
		phi.SetIncoming(pre, prePhis[i])
	}
	return pre
}

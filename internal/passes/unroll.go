package passes

// Unroll fully expands innermost loops with a provable small constant trip
// count. The recognized shape is the canonical rotated-while loop that
// irbuild produces and the other passes preserve:
//
//	preheader → header: phi-based induction variable, a comparison against
//	a constant, branch(body, exit); body blocks form the loop and a single
//	latch jumps back to the header; the header's exit edge is the loop's
//	only exit.
//
// Each iteration is materialized by cloning the loop region with the
// header phis pre-substituted by that iteration's values; the final header
// clone runs the header's instructions one last time (matching the N+1
// evaluations of the original loop condition) and jumps to the exit.
//
// The trip count is established by symbolically executing the comparison
// with the shared ir.EvalBinary semantics, so any comparison operator (
// including != with wrap-around steps) is handled uniformly — or rejected
// by the iteration cap.

import (
	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// Unroll is the full loop-unrolling pass.
type Unroll struct {
	scratchUser
	// MaxTrips bounds the trip count eligible for full unrolling
	// (default 8).
	MaxTrips int
	// MaxClonedInstrs bounds trips × loop size (default 160).
	MaxClonedInstrs int
}

// Name implements FuncPass.
func (*Unroll) Name() string { return "unroll" }

// Run implements FuncPass.
func (u *Unroll) Run(f *ir.Func) bool {
	maxTrips := u.MaxTrips
	if maxTrips == 0 {
		maxTrips = 8
	}
	maxCloned := u.MaxClonedInstrs
	if maxCloned == 0 {
		maxCloned = 160
	}

	s := u.scratch()
	changed := false
	// Unroll one loop per outer iteration: unrolling invalidates the loop
	// analysis, and an unrolled body may expose a newly-innermost loop.
	for rounds := 0; rounds < 8; rounds++ {
		f.RemoveUnreachable()
		s.dom.Build(f)
		loops := &s.loops
		loops.Find(f, &s.dom)
		done := true
		for i := len(loops.Loops) - 1; i >= 0; i-- {
			loop := loops.Loops[i]
			if plan, ok := planUnroll(f, loops, loop, maxTrips, maxCloned); ok {
				expand(f, plan, s)
				changed = true
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	return changed
}

// unrollPlan captures everything needed to expand one loop.
type unrollPlan struct {
	loop     *analysis.Loop
	pre      *ir.Block // preheader (unique outside entry)
	latch    *ir.Block
	exit     *ir.Block
	bodySucc *ir.Block // header's in-loop successor
	trips    int
	// initOf[i] is the value header.Phis[i] takes entering from the
	// preheader.
	initOf []*ir.Value
}

func planUnroll(f *ir.Func, loops *analysis.LoopInfo, loop *analysis.Loop, maxTrips, maxCloned int) (*unrollPlan, bool) {
	// Innermost, single latch, single exit edge leaving from the header.
	for _, b := range loop.Blocks {
		if loops.InnermostLoop(b) != loop {
			return nil, false
		}
	}
	if len(loop.Latches) != 1 {
		return nil, false
	}
	if len(loop.Exits) != 1 || loop.Exits[0].From != loop.Header {
		return nil, false
	}
	header := loop.Header
	if header.Term == nil || header.Term.Op != ir.OpBranch {
		return nil, false
	}
	pre := loop.Preheader()
	if pre == nil {
		return nil, false // LICM runs earlier and creates preheaders
	}
	if len(header.Preds) != 2 {
		return nil, false
	}

	exit := loop.Exits[0].To
	var bodySucc *ir.Block
	for _, s := range header.Succs() {
		if s != exit {
			bodySucc = s
		}
	}
	if bodySucc == nil || !loop.Contains(bodySucc) {
		return nil, false
	}

	// The branch condition: cmp(iv, const) or cmp(const, iv), where iv is a
	// header phi advanced by a constant in the latch.
	cond := header.Term.Args[0]
	if !cond.Op.IsCompare() || cond.Block != header {
		return nil, false
	}
	cmpOp := cond.Op
	var iv *ir.Value
	var bound int64
	if c, ok := cond.Args[1].IsConst(); ok {
		iv, bound = cond.Args[0], c
	} else if c, ok := cond.Args[0].IsConst(); ok {
		// Normalize const to the right by swapping the comparison.
		sw, _ := cmpOp.SwapCompare()
		cmpOp = sw
		iv, bound = cond.Args[1], c
	} else {
		return nil, false
	}
	if iv.Op != ir.OpPhi || iv.Block != header {
		return nil, false
	}
	// Continuation polarity: loop continues when the branch takes bodySucc.
	continueWhenTrue := header.Term.Blocks[0] == bodySucc

	latch := loop.Latches[0]
	init := iv.Incoming(pre)
	next := iv.Incoming(latch)
	if init == nil || next == nil {
		return nil, false
	}
	initC, ok := init.IsConst()
	if !ok {
		return nil, false
	}
	var step int64
	switch next.Op {
	case ir.OpAdd:
		if c, ok := next.Args[1].IsConst(); ok && next.Args[0] == iv {
			step = c
		} else if c, ok := next.Args[0].IsConst(); ok && next.Args[1] == iv {
			step = c
		} else {
			return nil, false
		}
	case ir.OpSub:
		if c, ok := next.Args[1].IsConst(); ok && next.Args[0] == iv {
			step = -c
		} else {
			return nil, false
		}
	default:
		return nil, false
	}

	// Symbolic trip count.
	trips := 0
	x := initC
	for {
		r, ok := ir.EvalBinary(cmpOp, x, bound)
		if !ok {
			return nil, false
		}
		continues := r != 0
		if !continueWhenTrue {
			continues = !continues
		}
		if !continues {
			break
		}
		trips++
		if trips > maxTrips {
			return nil, false
		}
		x += step
	}

	size := 0
	for _, b := range loop.Blocks {
		size += len(b.Phis) + len(b.Instrs) + 1
	}
	if (trips+1)*size > maxCloned {
		return nil, false
	}

	initOf := make([]*ir.Value, len(header.Phis))
	for i, phi := range header.Phis {
		in := phi.Incoming(pre)
		if in == nil {
			return nil, false
		}
		initOf[i] = in
	}
	return &unrollPlan{
		loop: loop, pre: pre, latch: latch, exit: exit,
		bodySucc: bodySucc, trips: trips, initOf: initOf,
	}, true
}

// expand materializes the unrolled loop.
func expand(f *ir.Func, p *unrollPlan, s *Scratch) {
	header := p.loop.Header
	cm := &s.clone

	// env[i] is header.Phis[i]'s value for the iteration being built; seed
	// substitutes them for the phis in the next clone.
	env := p.initOf
	seed := func() {
		cm.Reset(f)
		for i, phi := range header.Phis {
			cm.Values[phi.ID] = env[i]
		}
	}

	var headerClones []*ir.Block
	var latchClones []*ir.Block

	for k := 0; k < p.trips; k++ {
		seed()
		ir.CloneBlocksInto(f, p.loop.Blocks, cm)
		hc := cm.Blocks[header.ID]
		// The check passes for this iteration: jump straight into the body
		// clone (dropping the transient edge to the exit).
		replaceTermWithJump(hc, cm.Blocks[p.bodySucc.ID])
		headerClones = append(headerClones, hc)
		latchClones = append(latchClones, cm.Blocks[p.latch.ID])

		// Next iteration's phi values flow around the cloned backedge.
		nextEnv := make([]*ir.Value, len(env))
		for i, phi := range header.Phis {
			nextEnv[i] = cm.Value(phi.Incoming(p.latch))
		}
		env = nextEnv
	}

	// Final check: the header executes once more (its instructions may have
	// observable effects and feed the exit block's phis) and leaves the loop.
	seed()
	ir.CloneBlocksInto(f, []*ir.Block{header}, cm)
	finalCheck := cm.Blocks[header.ID]
	replaceTermWithJump(finalCheck, p.exit)
	headerClones = append(headerClones, finalCheck)

	// Chain the iterations: each cloned latch's backedge (which points at
	// its own iteration's header clone) advances to the next clone.
	for k, lc := range latchClones {
		lc.RedirectEdge(headerClones[k], headerClones[k+1])
	}

	// Supply the exit block's phi operands for the new incoming edge.
	for _, phi := range p.exit.Phis {
		if in := phi.Incoming(header); in != nil {
			phi.SetIncoming(finalCheck, cm.Value(in))
		}
	}

	// Values defined in the (dominating) original header may be used after
	// the loop; route those uses to the final iteration's copies.
	repl := s.replTable(f)
	for _, list := range [2][]*ir.Value{header.Phis, header.Instrs} {
		for _, v := range list {
			if nv := cm.Value(v); nv != v {
				repl[v.ID] = nv
			}
		}
	}
	f.ReplaceUses(repl)

	// Enter the expansion instead of the original loop; the original blocks
	// become unreachable and are removed (fixing the exit's old phi edge).
	p.pre.RedirectEdge(header, headerClones[0])
	f.RemoveUnreachable()
}

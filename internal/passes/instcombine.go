package passes

// InstCombine performs local algebraic simplification: per-instruction
// constant folding (through the shared ir.Eval* semantics so folding can
// never disagree with the VM), identity and annihilator rules, operand
// canonicalization, double-negation removal, comparison-of-self folding,
// constant reassociation, and branch-on-not inversion. It iterates within
// the function until no rule fires.

import (
	"statefulcc/internal/ir"
)

// InstCombine is the peephole simplification pass.
type InstCombine struct{ scratchUser }

// Name implements FuncPass.
func (*InstCombine) Name() string { return "instcombine" }

// Run implements FuncPass.
func (p *InstCombine) Run(f *ir.Func) bool {
	s := p.scratch()
	changed := false
	for round := 0; round < 16; round++ {
		iter := false
		// Values simplified away this round map to their replacement in
		// repl (sized on the first one). Uses are rewritten when they are
		// next looked at — an instruction's operands, and its operands'
		// operands, which is as deep as the rules below read — and the
		// rest of the function catches up when the round ends.
		var repl []*ir.Value
		var dead []bool
		resolve := func(v *ir.Value) {
			for i, a := range v.Args {
				v.Args[i] = ir.Resolve(repl, a)
			}
		}
		for _, b := range f.Blocks {
			removed := false
			for _, v := range b.Instrs {
				if repl != nil {
					resolve(v)
					for _, a := range v.Args {
						if a.Block != nil {
							resolve(a)
						}
					}
				}
				r, mutated := simplifyValue(f, v)
				if mutated {
					iter = true
				}
				if r != nil {
					if repl == nil {
						repl, dead = s.replTable(f), s.flagTable(f)
					}
					repl[v.ID] = r
					dead[v.ID] = true
					removed = true
					iter = true
				}
			}
			if removed {
				b.RemoveInstrs(dead)
			}
			if b.Term != nil && b.Term.Op == ir.OpBranch {
				if repl != nil {
					resolve(b.Term)
					if cond := b.Term.Args[0]; cond.Block != nil {
						resolve(cond)
					}
				}
				if simplifyBranch(b) {
					iter = true
				}
			}
		}
		if repl != nil {
			f.ReplaceUses(repl)
		}
		if !iter {
			break
		}
		changed = true
	}
	return changed
}

// simplifyBranch rewrites "branch !x, a, b" into "branch x, b, a" — the
// edge set is unchanged, so phis stay valid.
func simplifyBranch(b *ir.Block) bool {
	t := b.Term
	cond := t.Args[0]
	if cond.Op != ir.OpNot {
		return false
	}
	t.Args[0] = cond.Args[0]
	t.Blocks[0], t.Blocks[1] = t.Blocks[1], t.Blocks[0]
	return true
}

// simplifyValue returns a replacement value for v (nil if none) and whether
// v was mutated in place. Replacements always dominate v's uses: they are
// constants, operands of v, or operands of v's operands.
func simplifyValue(f *ir.Func, v *ir.Value) (*ir.Value, bool) {
	switch {
	case v.Op == ir.OpCopy:
		return v.Args[0], false

	case v.Op.IsBinaryInt() || v.Op.IsCompare():
		return simplifyBinary(f, v)

	case v.Op == ir.OpNeg || v.Op == ir.OpCompl || v.Op == ir.OpNot:
		x := v.Args[0]
		if c, ok := x.IsConst(); ok {
			if r, ok := ir.EvalUnary(v.Op, c); ok {
				return makeConst(f, r, v.Type), false
			}
		}
		// Double application cancels: -(-x), ^^x, !!x.
		if x.Op == v.Op {
			return x.Args[0], false
		}
		// !(cmp) becomes the inverted comparison, computed as a rewrite of
		// the not itself (the original comparison may have other users).
		if v.Op == ir.OpNot && x.Op.IsCompare() {
			inv, _ := x.Op.InvertCompare()
			v.Op = inv
			v.Args = f.ValueList(x.Args[0], x.Args[1])
			return nil, true
		}
		return nil, false
	}
	return nil, false
}

func simplifyBinary(f *ir.Func, v *ir.Value) (*ir.Value, bool) {
	x, y := v.Args[0], v.Args[1]
	xc, xConst := x.IsConst()
	yc, yConst := y.IsConst()

	// Full folding.
	if xConst && yConst {
		if r, ok := ir.EvalBinary(v.Op, xc, yc); ok {
			return makeConst(f, r, v.Type), false
		}
		return nil, false // div/rem by zero: preserve the trap
	}

	mutated := false
	// Canonicalize: constant on the right for commutative ops.
	if xConst && !yConst && v.Op.IsCommutative() {
		v.Args[0], v.Args[1] = y, x
		x, y = v.Args[0], v.Args[1]
		xc, xConst, yc, yConst = yc, yConst, xc, xConst
		mutated = true
	}

	// Identity/annihilator rules with a constant RHS.
	if yConst {
		switch v.Op {
		case ir.OpAdd, ir.OpSub, ir.OpXor, ir.OpOr, ir.OpShl, ir.OpShr:
			if yc == 0 {
				return x, mutated
			}
		case ir.OpMul:
			switch yc {
			case 1:
				return x, mutated
			case 0:
				return makeConst(f, 0, v.Type), mutated
			}
		case ir.OpDiv:
			if yc == 1 {
				return x, mutated
			}
		case ir.OpRem:
			if yc == 1 {
				return makeConst(f, 0, v.Type), mutated
			}
		case ir.OpAnd:
			switch yc {
			case 0:
				return makeConst(f, 0, v.Type), mutated
			case -1:
				return x, mutated
			}
		}
		// Reassociate constant chains: (x op c1) op c2 → x op (c1 op c2)
		// for associative-commutative add/mul/and/or/xor.
		if assoc(v.Op) && x.Op == v.Op {
			if c1, ok := x.Args[1].IsConst(); ok {
				if folded, ok := ir.EvalBinary(v.Op, c1, yc); ok {
					v.Args[0] = x.Args[0]
					v.Args[1] = f.ConstInt(folded)
					return nil, true
				}
			}
		}
	}

	// Same-operand rules.
	if x == y {
		switch v.Op {
		case ir.OpSub, ir.OpXor:
			return makeConst(f, 0, v.Type), mutated
		case ir.OpAnd, ir.OpOr:
			return x, mutated
		case ir.OpEq, ir.OpLe, ir.OpGe:
			return makeConst(f, 1, v.Type), mutated
		case ir.OpNe, ir.OpLt, ir.OpGt:
			return makeConst(f, 0, v.Type), mutated
		}
	}
	return nil, mutated
}

func assoc(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		return true
	}
	return false
}

func makeConst(f *ir.Func, v int64, t ir.Type) *ir.Value {
	if t == ir.TBool {
		return f.ConstBool(v != 0)
	}
	return f.ConstInt(v)
}

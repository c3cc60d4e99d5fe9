package passes

// Strength reduction: multiplications by constants become shift/add/sub
// combinations, and x+x becomes a shift. Signed division and remainder are
// deliberately left alone — the round-toward-zero semantics of MiniC's /
// and % do not match arithmetic shifts for negative operands.

import (
	"math/bits"

	"statefulcc/internal/ir"
)

// Strength is the strength-reduction pass.
type Strength struct{}

// Name implements FuncPass.
func (*Strength) Name() string { return "strength" }

// Run implements FuncPass.
func (*Strength) Run(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			v := b.Instrs[i]
			switch v.Op {
			case ir.OpMul:
				if reduceMul(f, b, &i, v) {
					changed = true
				}
			case ir.OpAdd:
				if v.Args[0] == v.Args[1] && v.Args[0].Op != ir.OpConst {
					// x + x → x << 1.
					v.Op = ir.OpShl
					v.Args[1] = f.ConstInt(1)
					changed = true
				}
			}
		}
	}
	return changed
}

// reduceMul rewrites x*c for profitable constants. i tracks the
// instruction index so that helper instructions inserted before v are not
// rescanned.
func reduceMul(f *ir.Func, b *ir.Block, i *int, v *ir.Value) bool {
	x, y := v.Args[0], v.Args[1]
	c, ok := y.IsConst()
	if !ok {
		if c2, ok2 := x.IsConst(); ok2 {
			x, c = y, c2
		} else {
			return false
		}
	}
	if x.Op == ir.OpConst {
		return false // instcombine folds const*const
	}
	switch {
	case c == -1:
		v.Op = ir.OpNeg
		v.Args = f.ValueList(x)
		return true
	case c > 1 && isPow2(c):
		v.Op = ir.OpShl
		v.Args = f.ValueList(x, f.ConstInt(int64(bits.TrailingZeros64(uint64(c)))))
		return true
	case c > 2 && isPow2(c-1):
		// x * (2^k + 1) → (x << k) + x
		sh := f.NewValue(ir.OpShl, ir.TInt, x, f.ConstInt(int64(bits.TrailingZeros64(uint64(c-1)))))
		b.InsertInstr(*i, sh)
		*i++
		v.Op = ir.OpAdd
		v.Args = f.ValueList(sh, x)
		return true
	case c > 2 && isPow2(c+1):
		// x * (2^k - 1) → (x << k) - x
		sh := f.NewValue(ir.OpShl, ir.TInt, x, f.ConstInt(int64(bits.TrailingZeros64(uint64(c+1)))))
		b.InsertInstr(*i, sh)
		*i++
		v.Op = ir.OpSub
		v.Args = f.ValueList(sh, x)
		return true
	}
	return false
}

func isPow2(c int64) bool { return c > 0 && c&(c-1) == 0 }

package ir

// This file implements the structural IR verifier. It checks the invariants
// every pass relies on; the pipeline driver runs it between passes when
// verification mode is enabled, so a pass that corrupts the CFG is caught at
// the pass that broke it rather than at codegen. Dominance-based SSA
// checking lives in internal/analysis (it needs the dominator tree).

import "fmt"

// Verify checks the module's structural invariants, returning the first
// problem found or nil.
func (m *Module) Verify() error { return m.VerifySome(nil) }

// VerifySome is Verify with the structural check of the i-th function done
// only where check[i] is set (nil checks all): a module some of whose
// functions are restored encodings of IR that was verified when it was made
// (Snapshot) needs the check of the others only.
func (m *Module) VerifySome(check []bool) error {
	names := make(map[string]bool)
	for _, g := range m.Globals {
		if names[g.Name] {
			return fmt.Errorf("module %s: duplicate global %s", m.Unit, g.Name)
		}
		names[g.Name] = true
		if g.Words < 1 {
			return fmt.Errorf("module %s: global %s has size %d", m.Unit, g.Name, g.Words)
		}
	}
	var vt verifyTables // shared by the module's functions
	for i, f := range m.Funcs {
		if names[f.Name] {
			return fmt.Errorf("module %s: duplicate symbol %s", m.Unit, f.Name)
		}
		names[f.Name] = true
		if check != nil && !check[i] {
			continue
		}
		if err := f.verify(&vt); err != nil {
			return fmt.Errorf("module %s: %w", m.Unit, err)
		}
	}
	return nil
}

// verifyTables are the verifier's dense side tables. def and inFunc are
// sized from the function's ID bounds, so an ID at or past the bound — a
// value or block some other function numbered — is reported, never indexed.
type verifyTables struct {
	// def[id] is the parameter, phi, instruction or terminator numbered id.
	def []*Value
	// inFunc[id] marks the block IDs in the function's layout.
	inFunc []bool
	// phiIn[id] counts a phi's operands for the pred with that block ID.
	phiIn []int32
}

// Verify checks one function's structural invariants.
func (f *Func) Verify() error {
	var vt verifyTables
	return f.verify(&vt)
}

func (f *Func) verify(vt *verifyTables) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("func %s: no blocks", f.Name)
	}
	vt.inFunc = Dense(vt.inFunc, f.NumBlockIDs())
	vt.phiIn = Dense(vt.phiIn, f.NumBlockIDs())
	vt.def = Dense(vt.def, f.NumValues())
	inFunc := func(b *Block) bool { return b.ID >= 0 && b.ID < len(vt.inFunc) && vt.inFunc[b.ID] && b.Func == f }
	for _, b := range f.Blocks {
		if b.Func != f {
			return fmt.Errorf("func %s: block %s has wrong owner", f.Name, b.Name())
		}
		if b.ID < 0 || b.ID >= len(vt.inFunc) {
			return fmt.Errorf("func %s: block %s is numbered past the function's %d block IDs", f.Name, b.Name(), len(vt.inFunc))
		}
		if vt.inFunc[b.ID] {
			return fmt.Errorf("func %s: two blocks are numbered %s", f.Name, b.Name())
		}
		vt.inFunc[b.ID] = true
	}
	if len(f.Entry().Preds) != 0 {
		return fmt.Errorf("func %s: entry block has predecessors", f.Name)
	}

	// Collect definitions to validate operand ownership.
	var defErr error
	define := func(v *Value) {
		switch {
		case defErr != nil:
		case v.ID < 0 || v.ID >= len(vt.def):
			defErr = fmt.Errorf("func %s: %s v%d is numbered past the function's %d value IDs", f.Name, v.Op, v.ID, len(vt.def))
		case vt.def[v.ID] != nil:
			defErr = fmt.Errorf("func %s: two definitions are numbered v%d (%s and %s)", f.Name, v.ID, vt.def[v.ID].Op, v.Op)
		default:
			vt.def[v.ID] = v
		}
	}
	for _, p := range f.Params {
		define(p)
	}
	f.ForEachValue(define)
	if defErr != nil {
		return defErr
	}

	edgeCount := func(from, to *Block) int {
		n := 0
		for _, s := range from.Succs() {
			if s == to {
				n++
			}
		}
		return n
	}

	for _, b := range f.Blocks {
		if b.Term == nil {
			return fmt.Errorf("func %s: block %s has no terminator", f.Name, b.Name())
		}
		if !b.Term.Op.IsTerminator() {
			return fmt.Errorf("func %s: block %s terminator is %s", f.Name, b.Name(), b.Term.Op)
		}
		// Pred lists mirror successor edges (with multiplicity).
		for _, s := range b.Succs() {
			if !inFunc(s) {
				return fmt.Errorf("func %s: block %s targets foreign block %s", f.Name, b.Name(), s.Name())
			}
			want := edgeCount(b, s)
			got := 0
			for _, p := range s.Preds {
				if p == b {
					got++
				}
			}
			if got != want {
				return fmt.Errorf("func %s: edge %s->%s has %d pred entries, want %d",
					f.Name, b.Name(), s.Name(), got, want)
			}
		}
		for _, p := range b.Preds {
			if !inFunc(p) {
				return fmt.Errorf("func %s: block %s has foreign pred", f.Name, b.Name())
			}
			if edgeCount(p, b) == 0 {
				return fmt.Errorf("func %s: block %s lists pred %s with no edge", f.Name, b.Name(), p.Name())
			}
		}

		check := func(v *Value, where string) error {
			if v.Block != b {
				return fmt.Errorf("func %s: %s %s in %s has wrong owner block", f.Name, where, v.Op, b.Name())
			}
			for i, a := range v.Args {
				if a == nil {
					return fmt.Errorf("func %s: %s in %s has nil arg %d", f.Name, v.LongString(), b.Name(), i)
				}
				// Constants are free-floating values, never stored in
				// blocks, and their IDs mean nothing here (see dense.go).
				if a.Op == OpConst {
					continue
				}
				if a.ID < 0 || a.ID >= len(vt.def) || vt.def[a.ID] != a {
					return fmt.Errorf("func %s: %s in %s uses undefined value v%d (%s)",
						f.Name, v.LongString(), b.Name(), a.ID, a.Op)
				}
			}
			return nil
		}

		for _, phi := range b.Phis {
			if phi.Op != OpPhi {
				return fmt.Errorf("func %s: non-phi %s in phi list of %s", f.Name, phi.Op, b.Name())
			}
			if err := check(phi, "phi"); err != nil {
				return err
			}
			if len(phi.Args) != len(phi.Blocks) {
				return fmt.Errorf("func %s: phi v%d arg/block mismatch", f.Name, phi.ID)
			}
			if len(phi.Args) != len(b.Preds) {
				return fmt.Errorf("func %s: phi v%d in %s has %d operands for %d preds",
					f.Name, phi.ID, b.Name(), len(phi.Args), len(b.Preds))
			}
			// Incoming blocks equal the preds as multisets. The counts
			// return to zero on success: as many operands as preds, and
			// every pred took one.
			for _, in := range phi.Blocks {
				if !inFunc(in) {
					return fmt.Errorf("func %s: phi v%d in %s names foreign block %s",
						f.Name, phi.ID, b.Name(), in.Name())
				}
				vt.phiIn[in.ID]++
			}
			for _, p := range b.Preds {
				if vt.phiIn[p.ID] == 0 {
					return fmt.Errorf("func %s: phi v%d in %s missing operand for pred %s",
						f.Name, phi.ID, b.Name(), p.Name())
				}
				vt.phiIn[p.ID]--
			}
		}
		for _, v := range b.Instrs {
			if v.Op.IsTerminator() || v.Op == OpPhi {
				return fmt.Errorf("func %s: %s in instruction list of %s", f.Name, v.Op, b.Name())
			}
			if err := check(v, "instr"); err != nil {
				return err
			}
			if err := verifyOperandShape(f, v); err != nil {
				return err
			}
		}
		if err := check(b.Term, "terminator"); err != nil {
			return err
		}
		if err := verifyOperandShape(f, b.Term); err != nil {
			return err
		}
	}
	return nil
}

// verifyOperandShape checks opcode-specific arities and types.
func verifyOperandShape(f *Func, v *Value) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("func %s: %s: %s", f.Name, v.LongString(), fmt.Sprintf(format, args...))
	}
	argn := func(n int) error {
		if len(v.Args) != n {
			return bad("want %d args, have %d", n, len(v.Args))
		}
		return nil
	}
	switch v.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr:
		if err := argn(2); err != nil {
			return err
		}
		if v.Type != TInt {
			return bad("result must be int")
		}
	case OpNeg, OpCompl:
		if err := argn(1); err != nil {
			return err
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if err := argn(2); err != nil {
			return err
		}
		if v.Type != TBool {
			return bad("comparison must produce bool")
		}
	case OpNot:
		if err := argn(1); err != nil {
			return err
		}
		if v.Type != TBool {
			return bad("not must produce bool")
		}
	case OpLoad:
		if err := argn(1); err != nil {
			return err
		}
		if v.Args[0].Type != TPtr {
			return bad("load needs ptr operand")
		}
	case OpStore:
		if err := argn(2); err != nil {
			return err
		}
		if v.Args[0].Type != TPtr {
			return bad("store needs ptr operand")
		}
	case OpIndexAddr:
		if err := argn(2); err != nil {
			return err
		}
		if v.Args[0].Type != TPtr || v.Type != TPtr {
			return bad("indexaddr is ptr -> ptr")
		}
	case OpAlloca:
		if v.Aux < 1 {
			return bad("alloca size %d", v.Aux)
		}
		if v.Type != TPtr {
			return bad("alloca must produce ptr")
		}
	case OpGlobalAddr:
		if v.Sym == "" {
			return bad("globaladdr without symbol")
		}
	case OpCall:
		if v.Sym == "" {
			return bad("call without callee")
		}
	case OpAssert:
		if len(v.Args) != 1 {
			return bad("assert takes 1 arg")
		}
	case OpRet:
		if len(v.Args) > 1 {
			return bad("ret takes at most 1 arg")
		}
		if f.Result == TVoid && len(v.Args) != 0 {
			return bad("void function returns a value")
		}
		if f.Result != TVoid && len(v.Args) != 1 {
			return bad("non-void function returns nothing")
		}
	case OpJump:
		if len(v.Blocks) != 1 {
			return bad("jump needs 1 target")
		}
	case OpBranch:
		if err := argn(1); err != nil {
			return err
		}
		if len(v.Blocks) != 2 {
			return bad("branch needs 2 targets")
		}
		if v.Args[0].Type != TBool {
			return bad("branch condition must be bool")
		}
	case OpConst, OpParam:
		return bad("pseudo-value stored in a block")
	}
	return nil
}

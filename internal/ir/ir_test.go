package ir_test

import (
	"strings"
	"testing"

	"statefulcc/internal/ir"
)

// buildDiamond constructs:
//
//	entry → (then | else) → join(phi) → ret
func buildDiamond(t *testing.T) (*ir.Func, map[string]*ir.Block) {
	t.Helper()
	f := ir.NewFunc("diamond", []ir.Type{ir.TInt}, ir.TInt)
	entry := f.NewBlock()
	thenB := f.NewBlock()
	elseB := f.NewBlock()
	join := f.NewBlock()

	cond := entry.AddInstr(f.NewValue(ir.OpGt, ir.TBool, f.Params[0], f.ConstInt(0)))
	br := f.NewValue(ir.OpBranch, ir.TVoid, cond)
	br.Blocks = []*ir.Block{thenB, elseB}
	entry.SetTerm(br)

	v1 := thenB.AddInstr(f.NewValue(ir.OpAdd, ir.TInt, f.Params[0], f.ConstInt(1)))
	j1 := f.NewValue(ir.OpJump, ir.TVoid)
	j1.Blocks = []*ir.Block{join}
	thenB.SetTerm(j1)

	v2 := elseB.AddInstr(f.NewValue(ir.OpSub, ir.TInt, f.Params[0], f.ConstInt(1)))
	j2 := f.NewValue(ir.OpJump, ir.TVoid)
	j2.Blocks = []*ir.Block{join}
	elseB.SetTerm(j2)

	phi := f.NewValue(ir.OpPhi, ir.TInt)
	phi.Args = []*ir.Value{v1, v2}
	phi.Blocks = []*ir.Block{thenB, elseB}
	join.AddPhi(phi)
	ret := f.NewValue(ir.OpRet, ir.TVoid, phi)
	join.SetTerm(ret)

	return f, map[string]*ir.Block{"entry": entry, "then": thenB, "else": elseB, "join": join}
}

func TestDiamondVerifies(t *testing.T) {
	f, _ := buildDiamond(t)
	if err := f.Verify(); err != nil {
		t.Fatalf("diamond does not verify: %v\n%s", err, f)
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	// Missing terminator.
	f := ir.NewFunc("bad", nil, ir.TVoid)
	f.NewBlock()
	if err := f.Verify(); err == nil || !strings.Contains(err.Error(), "no terminator") {
		t.Errorf("missing terminator not caught: %v", err)
	}

	// Phi operand count mismatch.
	f2, blocks := buildDiamond(t)
	phi := blocks["join"].Phis[0]
	phi.Args = phi.Args[:1]
	phi.Blocks = phi.Blocks[:1]
	if err := f2.Verify(); err == nil {
		t.Error("phi/pred mismatch not caught")
	}

	// Branch with non-bool condition.
	f3, blocks3 := buildDiamond(t)
	blocks3["entry"].Term.Args[0] = f3.ConstInt(1)
	if err := f3.Verify(); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Errorf("non-bool branch condition not caught: %v", err)
	}

	// Pred list out of sync.
	f4, blocks4 := buildDiamond(t)
	blocks4["join"].Preds = blocks4["join"].Preds[:1]
	if err := f4.Verify(); err == nil {
		t.Error("pred desync not caught")
	}
}

func TestSetTermMaintainsPreds(t *testing.T) {
	f := ir.NewFunc("f", nil, ir.TVoid)
	a := f.NewBlock()
	b := f.NewBlock()
	c := f.NewBlock()

	j := f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = []*ir.Block{b}
	a.SetTerm(j)
	if len(b.Preds) != 1 || b.Preds[0] != a {
		t.Fatalf("preds after SetTerm: %v", b.Preds)
	}
	// Replace the terminator: b loses the pred, c gains it.
	j2 := f.NewValue(ir.OpJump, ir.TVoid)
	j2.Blocks = []*ir.Block{c}
	a.SetTerm(j2)
	if len(b.Preds) != 0 || len(c.Preds) != 1 {
		t.Errorf("pred maintenance broken: b=%v c=%v", b.Preds, c.Preds)
	}
}

func TestRedirectEdgeFixesPhis(t *testing.T) {
	f, blocks := buildDiamond(t)
	join, thenB := blocks["join"], blocks["then"]
	newTarget := f.NewBlock()
	r := f.NewValue(ir.OpRet, ir.TVoid, f.ConstInt(0))
	newTarget.SetTerm(r)

	phi := join.Phis[0]
	if phi.Incoming(thenB) == nil {
		t.Fatal("phi missing then operand before redirect")
	}
	if !thenB.RedirectEdge(join, newTarget) {
		t.Fatal("redirect failed")
	}
	if phi.Incoming(thenB) != nil {
		t.Error("phi operand for redirected pred not dropped")
	}
	if len(newTarget.Preds) != 1 || newTarget.Preds[0] != thenB {
		t.Errorf("new target preds: %v", newTarget.Preds)
	}
}

func TestSplitEdge(t *testing.T) {
	f, blocks := buildDiamond(t)
	entry, thenB, join := blocks["entry"], blocks["then"], blocks["join"]
	phi := join.Phis[0]
	before := phi.Incoming(thenB)

	mid := entry.SplitEdge(thenB)
	if err := f.Verify(); err != nil {
		t.Fatalf("split edge broke IR: %v\n%s", err, f)
	}
	if len(mid.Preds) != 1 || mid.Preds[0] != entry {
		t.Errorf("mid preds: %v", mid.Preds)
	}
	if got := entry.Succs()[0]; got != mid {
		t.Errorf("entry's first successor is %s, want mid", got.Name())
	}
	if phi.Incoming(thenB) != before {
		t.Error("unrelated phi operand disturbed")
	}
}

func TestSplitCriticalEdgeWithPhis(t *testing.T) {
	// entry branches to (join, other); join has another pred — a critical
	// edge whose phi operands must be retargeted.
	f := ir.NewFunc("crit", []ir.Type{ir.TBool}, ir.TInt)
	entry := f.NewBlock()
	other := f.NewBlock()
	join := f.NewBlock()

	br := f.NewValue(ir.OpBranch, ir.TVoid, f.Params[0])
	br.Blocks = []*ir.Block{join, other}
	entry.SetTerm(br)

	j := f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = []*ir.Block{join}
	other.SetTerm(j)

	phi := f.NewValue(ir.OpPhi, ir.TInt)
	phi.Args = []*ir.Value{f.ConstInt(1), f.ConstInt(2)}
	phi.Blocks = []*ir.Block{entry, other}
	join.AddPhi(phi)
	ret := f.NewValue(ir.OpRet, ir.TVoid, phi)
	join.SetTerm(ret)

	if !entry.HasCriticalEdge(join) {
		t.Fatal("edge should be critical")
	}
	mid := entry.SplitEdge(join)
	if err := f.Verify(); err != nil {
		t.Fatalf("critical edge split broke IR: %v\n%s", err, f)
	}
	if in := phi.Incoming(mid); in == nil || !in.IsConstValue(1) {
		t.Errorf("phi operand not retargeted to mid: %v", in)
	}
}

func TestReplaceAllUses(t *testing.T) {
	f, blocks := buildDiamond(t)
	phi := blocks["join"].Phis[0]
	repl := f.ConstInt(99)
	table := make([]*ir.Value, f.NumValues())
	table[phi.ID] = repl
	f.ReplaceUses(table)
	if blocks["join"].Term.Args[0] != repl {
		t.Error("use not replaced")
	}
}

func TestPostorderAndRPO(t *testing.T) {
	f, blocks := buildDiamond(t)
	rpo := f.ReversePostorder()
	if rpo[0] != blocks["entry"] {
		t.Errorf("RPO must start at entry, got %s", rpo[0].Name())
	}
	if rpo[len(rpo)-1] != blocks["join"] {
		t.Errorf("RPO must end at join, got %s", rpo[len(rpo)-1].Name())
	}
	po := f.Postorder()
	if po[len(po)-1] != blocks["entry"] {
		t.Error("postorder must end at entry")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f, blocks := buildDiamond(t)
	// Add an unreachable block that jumps into join, polluting its phis.
	dead := f.NewBlock()
	j := f.NewValue(ir.OpJump, ir.TVoid)
	j.Blocks = []*ir.Block{blocks["join"]}
	dead.SetTerm(j)
	blocks["join"].Phis[0].SetIncoming(dead, f.ConstInt(7))

	if n := f.RemoveUnreachable(); n != 1 {
		t.Fatalf("removed %d blocks, want 1", n)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("IR invalid after unreachable removal: %v\n%s", err, f)
	}
	if blocks["join"].Phis[0].Incoming(dead) != nil {
		t.Error("phi operand for dead pred not dropped")
	}
}

func TestCloneFuncIndependence(t *testing.T) {
	f, blocks := buildDiamond(t)
	g := ir.CloneFunc(f)
	if err := g.Verify(); err != nil {
		t.Fatalf("clone invalid: %v\n%s", err, g)
	}
	// Mutating the clone must not touch the original.
	g.Blocks[0].Instrs[0].Aux = 12345
	gphi := g.Blocks[3].Phis[0]
	gphi.Args[0] = g.ConstInt(777)
	if blocks["join"].Phis[0].Args[0].IsConstValue(777) {
		t.Error("clone shares values with original")
	}
	if len(g.Blocks) != len(f.Blocks) {
		t.Errorf("clone block count %d, want %d", len(g.Blocks), len(f.Blocks))
	}
}

func TestCloneModule(t *testing.T) {
	f, _ := buildDiamond(t)
	m := &ir.Module{Unit: "u.mc", Funcs: []*ir.Func{f}}
	f.Module = m
	m.Globals = append(m.Globals, &ir.Global{Name: "g", Words: 1, Init: 3})
	m.Externs = append(m.Externs, "ext")

	c := ir.CloneModule(m)
	if err := c.Verify(); err != nil {
		t.Fatalf("module clone invalid: %v", err)
	}
	c.Globals[0].Init = 99
	if m.Globals[0].Init != 3 {
		t.Error("clone shares globals")
	}
	if c.Funcs[0].Module != c {
		t.Error("clone function does not point at cloned module")
	}
}

func TestEvalBinarySemantics(t *testing.T) {
	cases := []struct {
		op   ir.Op
		x, y int64
		want int64
		ok   bool
	}{
		{ir.OpAdd, 2, 3, 5, true},
		{ir.OpSub, 2, 3, -1, true},
		{ir.OpMul, -4, 3, -12, true},
		{ir.OpDiv, 7, 2, 3, true},
		{ir.OpDiv, -7, 2, -3, true}, // round toward zero
		{ir.OpDiv, 1, 0, 0, false},
		{ir.OpRem, -7, 2, -1, true},
		{ir.OpRem, 1, 0, 0, false},
		{ir.OpShl, 1, 65, 2, true},   // masked shift
		{ir.OpShr, -16, 2, -4, true}, // arithmetic shift
		{ir.OpLt, 1, 2, 1, true},
		{ir.OpGe, 1, 2, 0, true},
		{ir.OpEq, 5, 5, 1, true},
	}
	for _, c := range cases {
		got, ok := ir.EvalBinary(c.op, c.x, c.y)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("EvalBinary(%v, %d, %d) = (%d, %t), want (%d, %t)", c.op, c.x, c.y, got, ok, c.want, c.ok)
		}
	}
	if v, ok := ir.EvalUnary(ir.OpNeg, 5); !ok || v != -5 {
		t.Errorf("neg: %d %t", v, ok)
	}
	if v, ok := ir.EvalUnary(ir.OpCompl, 0); !ok || v != -1 {
		t.Errorf("compl: %d %t", v, ok)
	}
	if v, ok := ir.EvalUnary(ir.OpNot, 0); !ok || v != 1 {
		t.Errorf("not: %d %t", v, ok)
	}
}

func TestOpPredicates(t *testing.T) {
	if !ir.OpAdd.IsCommutative() || ir.OpSub.IsCommutative() {
		t.Error("commutativity misclassified")
	}
	if !ir.OpBranch.IsTerminator() || ir.OpAdd.IsTerminator() {
		t.Error("terminators misclassified")
	}
	if !ir.OpStore.HasSideEffects() || ir.OpAdd.HasSideEffects() {
		t.Error("side effects misclassified")
	}
	if !ir.OpDiv.HasSideEffects() {
		t.Error("div can trap; it has effects")
	}
	if inv, ok := ir.OpLt.InvertCompare(); !ok || inv != ir.OpGe {
		t.Error("InvertCompare(Lt) wrong")
	}
	if sw, ok := ir.OpLe.SwapCompare(); !ok || sw != ir.OpGe {
		t.Error("SwapCompare(Le) wrong")
	}
	if _, ok := ir.OpAdd.InvertCompare(); ok {
		t.Error("InvertCompare on non-compare")
	}
}

func TestPrinterStable(t *testing.T) {
	f, _ := buildDiamond(t)
	s1, s2 := f.String(), f.String()
	if s1 != s2 {
		t.Error("printer nondeterministic")
	}
	for _, want := range []string{"func diamond", "branch", "phi", "ret", "preds:"} {
		if !strings.Contains(s1, want) {
			t.Errorf("printed IR missing %q:\n%s", want, s1)
		}
	}
}

func TestModuleHelpers(t *testing.T) {
	f, _ := buildDiamond(t)
	m := &ir.Module{Unit: "u.mc", Funcs: []*ir.Func{f}}
	if m.FindFunc("diamond") != f || m.FindFunc("nope") != nil {
		t.Error("FindFunc broken")
	}
	m.Globals = append(m.Globals, &ir.Global{Name: "g", Words: 2})
	if m.FindGlobal("g") == nil || m.FindGlobal("x") != nil {
		t.Error("FindGlobal broken")
	}
	if !m.RemoveFunc("diamond") || m.RemoveFunc("diamond") {
		t.Error("RemoveFunc broken")
	}
}

func TestNumUses(t *testing.T) {
	f, blocks := buildDiamond(t)
	uses := f.NumUses()
	phi := blocks["join"].Phis[0]
	if uses[phi.ID] != 1 {
		t.Errorf("phi uses = %d, want 1 (the ret)", uses[phi.ID])
	}
}

// bigFunc returns a function that has numbered far more values and blocks
// than a diamond has, as a source of IDs no diamond-sized table holds.
func bigFunc() *ir.Func {
	g := ir.NewFunc("other", nil, ir.TVoid)
	for i := 0; i < 64; i++ {
		g.ConstInt(int64(i))
		g.NewBlock()
	}
	return g
}

// TestVerifyIDsBeyondTables: the verifier indexes dense tables by value and
// block ID, sized from the function's ID bounds. A value or block some other
// function numbered — the shape of a pass bug that moves IR between
// functions without renumbering — has an ID at or past those bounds (or one
// that collides with a local ID) and must come back as an error, never as
// an index out of range.
func TestVerifyIDsBeyondTables(t *testing.T) {
	other := bigFunc()

	// A constant operand is shared freely: inlining leaves the callee's
	// constants, with the callee's IDs, in the caller.
	f, blocks := buildDiamond(t)
	blocks["then"].Instrs[0].Args[1] = other.ConstInt(5)
	if err := f.Verify(); err != nil {
		t.Errorf("foreign constant operand rejected: %v", err)
	}

	// A pass-made phi and constant — IDs past the NumValues a table was
	// sized with before the pass ran — verify like any other value.
	f, blocks = buildDiamond(t)
	sized := f.NumValues()
	phi := f.NewValue(ir.OpPhi, ir.TInt, f.ConstInt(1), f.ConstInt(2))
	phi.Blocks = []*ir.Block{blocks["then"], blocks["else"]}
	blocks["join"].AddPhi(phi)
	blocks["join"].Term.Args[0] = phi
	if phi.ID < sized {
		t.Fatalf("new phi numbered %d, below the old bound %d", phi.ID, sized)
	}
	if err := f.Verify(); err != nil {
		t.Errorf("pass-made phi rejected: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(f *ir.Func, blocks map[string]*ir.Block)
		want    string
	}{
		{"instruction numbered by another function", func(f *ir.Func, blocks map[string]*ir.Block) {
			blocks["then"].AddInstr(other.NewValue(ir.OpAdd, ir.TInt, f.Params[0], f.Params[0]))
		}, "numbered past"},
		{"phi numbered by another function", func(f *ir.Func, blocks map[string]*ir.Block) {
			phi := other.NewValue(ir.OpPhi, ir.TInt, f.Params[0], f.Params[0])
			phi.Blocks = []*ir.Block{blocks["then"], blocks["else"]}
			blocks["join"].AddPhi(phi)
		}, "numbered past"},
		{"operand numbered by another function", func(f *ir.Func, blocks map[string]*ir.Block) {
			blocks["then"].Instrs[0].Args[0] = other.NewValue(ir.OpAdd, ir.TInt)
		}, "undefined value"},
		{"foreign operand with a local ID", func(f *ir.Func, blocks map[string]*ir.Block) {
			g := ir.NewFunc("twin", []ir.Type{ir.TInt}, ir.TInt)
			blocks["then"].Instrs[0].Args[0] = g.Params[0] // numbered 0, like f's own parameter
		}, "undefined value"},
		{"two instructions with one ID", func(f *ir.Func, blocks map[string]*ir.Block) {
			dup := f.NewValue(ir.OpAdd, ir.TInt, f.Params[0], f.Params[0])
			dup.ID = blocks["then"].Instrs[0].ID
			blocks["else"].AddInstr(dup)
		}, "two definitions"},
		{"block numbered by another function", func(f *ir.Func, blocks map[string]*ir.Block) {
			b := other.NewBlock()
			b.Func = f
			r := f.NewValue(ir.OpRet, ir.TVoid, f.ConstInt(0))
			r.Block = b
			b.Term = r
			f.Blocks = append(f.Blocks, b)
		}, "numbered past"},
		{"branch to a block numbered by another function", func(f *ir.Func, blocks map[string]*ir.Block) {
			blocks["then"].Term.Blocks[0] = other.NewBlock()
		}, "foreign block"},
		{"phi naming a block numbered by another function", func(f *ir.Func, blocks map[string]*ir.Block) {
			blocks["join"].Phis[0].Blocks[0] = other.NewBlock()
		}, "foreign block"},
	}
	for _, tc := range cases {
		f, blocks := buildDiamond(t)
		tc.corrupt(f, blocks)
		err := f.Verify()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestDenseTablesAndNewValues: the helpers passes build on must treat a
// value created after a table was sized (its ID is past the table's end),
// and a constant (whose ID means nothing), as "no entry".
func TestDenseTablesAndNewValues(t *testing.T) {
	f, blocks := buildDiamond(t)
	thenB, join := blocks["then"], blocks["join"]
	repl := ir.Dense[*ir.Value](nil, f.NumValues())
	dead := ir.Dense[bool](nil, f.NumValues())

	// Values made after sizing: one replaces the phi, one is appended to a
	// block that is then compacted.
	late := thenB.AddInstr(f.NewValue(ir.OpMul, ir.TInt, f.Params[0], f.Params[0]))
	phi := join.Phis[0]
	repl[phi.ID] = late
	if got := ir.Resolve(repl, phi); got != late {
		t.Errorf("Resolve(phi) = %v, want the late value", got)
	}
	if got := ir.Resolve(repl, late); got != late {
		t.Errorf("Resolve of a value past the table = %v, want itself", got)
	}
	c := bigFunc().ConstInt(3) // a constant numbered far past the table
	c.ID = phi.ID              // … or colliding with a replaced value
	if got := ir.Resolve(repl, c); got != c {
		t.Errorf("Resolve followed a constant's ID: %v", got)
	}

	if !f.ReplaceUses(repl) || join.Term.Args[0] != late {
		t.Errorf("ReplaceUses left %v in the return", join.Term.Args[0])
	}
	if f.ReplaceUses(repl) {
		t.Error("second ReplaceUses reported a change")
	}

	first := thenB.Instrs[0]
	dead[first.ID] = true
	if n := thenB.RemoveInstrs(dead); n != 1 || len(thenB.Instrs) != 1 || thenB.Instrs[0] != late || first.Block != nil {
		t.Errorf("RemoveInstrs removed %d, left %v", n, thenB.Instrs)
	}
	if n := thenB.RemoveInstrs(dead); n != 0 || len(thenB.Instrs) != 1 || thenB.Instrs[0] != late {
		t.Errorf("RemoveInstrs with nothing to remove removed %d, left %v", n, thenB.Instrs)
	}

	// Grow keeps entries and zeroes what it exposes, including capacity a
	// longer earlier use left dirty.
	tbl := ir.Dense([]int32{7, 7, 7, 7, 7, 7, 7, 7}, 2)
	tbl[1] = 5
	tbl = ir.Grow(tbl, 6)
	if len(tbl) != 6 || tbl[1] != 5 || tbl[2] != 0 || tbl[5] != 0 {
		t.Errorf("Grow = %v", tbl)
	}
	tbl = ir.Grow(tbl, 100)
	if len(tbl) != 100 || tbl[1] != 5 || tbl[99] != 0 {
		t.Errorf("Grow past capacity lost entries: len %d", len(tbl))
	}

	// A CloneMap sized for one function answers for values of a bigger
	// one (and for constants) with the value itself.
	var cm ir.CloneMap
	cm.Reset(f)
	g := bigFunc()
	far := g.NewValue(ir.OpAdd, ir.TInt)
	if cm.Value(far) != far || cm.Value(c) != c || cm.Block(g.Blocks[60]) != g.Blocks[60] {
		t.Error("CloneMap mapped a value or block past its tables")
	}
}

// TestSlabValuesAndLists: what a function cuts from its slab behaves like
// memory of its own. Neighbouring values and lists do not overlap however
// many chunks they span, a caller's operand slice is copied, appending to a
// slab list moves it rather than overwriting the next one, and the IDs are
// the ones one-by-one allocation gave.
func TestSlabValuesAndLists(t *testing.T) {
	m := &ir.Module{Unit: "slab.mc"}
	f := m.NewFunc("f", []ir.Type{ir.TInt}, ir.TInt)
	g := m.NewFunc("g", nil, ir.TVoid)
	if f.Module != m || f.Params[0].ID != 0 || f.Params[0].Op != ir.OpParam {
		t.Fatalf("Module.NewFunc: module %p, param %+v", f.Module, f.Params[0])
	}

	// Enough values for several chunks, interleaved between two functions of
	// the module, each with operands.
	const n = 700
	args := []*ir.Value{f.Params[0], f.Params[0]}
	var fv, gv []*ir.Value
	for i := 0; i < n; i++ {
		v := f.NewValue(ir.OpAdd, ir.TInt, args...)
		v.Aux = int64(i)
		fv = append(fv, v)
		c := g.ConstInt(int64(-i))
		gv = append(gv, c)
		if v.ID != i+1 || c.ID != i {
			t.Fatalf("IDs %d and %d at step %d, want %d and %d", v.ID, c.ID, i, i+1, i)
		}
	}
	args[0], args[1] = nil, nil // the caller's slice was copied
	for i := 0; i < n; i++ {
		if v := fv[i]; v.Aux != int64(i) || len(v.Args) != 2 || v.Args[0] != f.Params[0] || v.Args[1] != f.Params[0] {
			t.Fatalf("value %d was overwritten: %+v", i, v)
		}
		if c := gv[i]; c.Aux != int64(-i) || c.Op != ir.OpConst || c.Args != nil {
			t.Fatalf("constant %d was overwritten: %+v", i, c)
		}
	}

	// A list has no spare capacity: growing one leaves its neighbour alone.
	a, b := f.ValueList(fv[0], fv[1]), f.ValueList(fv[2])
	a = append(a, fv[3])
	if b[0] != fv[2] || a[2] != fv[3] {
		t.Error("appending to a slab list ran into the next one")
	}
	if f.ValueList() != nil || f.BlockList() != nil {
		t.Error("empty lists must be nil")
	}
	b1, b2 := f.NewBlock(), f.NewBlock()
	if bl := f.BlockList(b1, b2); len(bl) != 2 || bl[0] != b1 || bl[1] != b2 || b1.ID != 0 || b2.ID != 1 || b2.Func != f {
		t.Errorf("BlockList / NewBlock: %v", bl)
	}
}

// TestAddInstrsEqualsAddInstr: placing a block's instructions at once gives
// the block AddInstr one at a time would have, with the list still
// extensible.
func TestAddInstrsEqualsAddInstr(t *testing.T) {
	f := ir.NewFunc("f", []ir.Type{ir.TInt}, ir.TInt)
	b := f.NewBlock()
	first := b.AddInstr(f.NewValue(ir.OpNeg, ir.TInt, f.Params[0]))
	var rest []*ir.Value
	for i := 0; i < 5; i++ {
		rest = append(rest, f.NewValue(ir.OpAdd, ir.TInt, first, f.Params[0]))
	}
	b.AddInstrs(nil)
	if len(b.Instrs) != 1 || b.Instrs[0] != first {
		t.Errorf("AddInstrs of nothing changed the block: %v", b.Instrs)
	}
	b.AddInstrs(rest)
	rest[0] = nil // the block does not alias the caller's buffer
	if len(b.Instrs) != 6 || b.Instrs[0] != first {
		t.Fatalf("instrs %v", b.Instrs)
	}
	for i, v := range b.Instrs {
		if v == nil || v.Block != b {
			t.Errorf("instr %d: %v, owner %v", i, v, v.Block)
		}
	}
	last := b.AddInstr(f.NewValue(ir.OpNeg, ir.TInt, first))
	ret := f.NewValue(ir.OpRet, ir.TVoid, last)
	b.SetTerm(ret)
	if err := f.Verify(); err != nil {
		t.Error(err)
	}
}

package passes

// GVN performs dominator-scoped value numbering: walking the dominator tree
// with a scoped hash table of expressions, later computations of an
// available expression are replaced by the dominating one. Trapping div/rem
// and bounds-checked indexaddr are safe to merge because the dominating
// occurrence traps first on identical operands. Copies are propagated away
// in the same walk.

import (
	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// GVN is the global value numbering pass.
type GVN struct {
	scratchUser
	// table and constIDs are emptied, not reallocated, per function.
	table    map[exprKey]*ir.Value
	constIDs map[[2]int64]int
	added    []exprKey
}

// Name implements FuncPass.
func (*GVN) Name() string { return "gvn" }

// exprKey identifies a computation up to operand identity; commutative ops
// are canonicalized by operand ID order.
type exprKey struct {
	op     ir.Op
	typ    ir.Type
	aux    int64
	sym    string
	a0, a1 int
}

// Run implements FuncPass.
func (p *GVN) Run(f *ir.Func) bool {
	f.RemoveUnreachable()
	e := f.Entry()
	if e == nil {
		return false
	}
	s := p.scratch()
	s.dom.Build(f)
	if p.table == nil {
		p.table = make(map[exprKey]*ir.Value)
		p.constIDs = make(map[[2]int64]int)
	}
	clear(p.table)
	clear(p.constIDs)
	g := gvnWalk{
		p:   p,
		dom: &s.dom,
		// repl maps replaced values to their representatives, applied
		// lazily so chains resolve without repeated whole-function rewrites.
		repl: s.replTable(f),
		dead: s.flagTable(f),
	}
	g.visit(e)
	p.added = p.added[:0]

	// A final sweep: phis in blocks dominated by nothing we visited after
	// their operands were replaced (back edges) still hold stale values.
	if f.ReplaceUses(g.repl) {
		g.changed = true
	}
	return g.changed
}

type gvnWalk struct {
	p       *GVN
	dom     *analysis.DomTree
	repl    []*ir.Value
	dead    []bool
	changed bool
}

// valueNum is the value number of an operand: its representative's ID, or
// an interned negative number so that equal constants share one.
func (g *gvnWalk) valueNum(v *ir.Value) int {
	v = ir.Resolve(g.repl, v)
	if v.Op == ir.OpConst {
		k := [2]int64{v.Aux, int64(v.Type)}
		if id, ok := g.p.constIDs[k]; ok {
			return id
		}
		id := -(len(g.p.constIDs) + 2) // negative space for constants
		g.p.constIDs[k] = id
		return id
	}
	return v.ID
}

// resolveArgs rewrites v's operands through earlier replacements.
func (g *gvnWalk) resolveArgs(v *ir.Value) {
	for i, a := range v.Args {
		if r := ir.Resolve(g.repl, a); r != a {
			v.Args[i] = r
			g.changed = true
		}
	}
}

func (g *gvnWalk) visit(b *ir.Block) {
	table := g.p.table
	mark := len(g.p.added)
	removed := false
	for _, v := range b.Instrs {
		g.resolveArgs(v)
		if v.Op == ir.OpCopy {
			g.repl[v.ID] = v.Args[0]
			g.dead[v.ID] = true
			removed = true
			continue
		}
		if !numberable(v.Op) {
			continue
		}
		key := exprKey{op: v.Op, typ: v.Type, aux: v.Aux, sym: v.Sym}
		switch len(v.Args) {
		case 1:
			key.a0 = g.valueNum(v.Args[0])
			key.a1 = -1
		case 2:
			key.a0 = g.valueNum(v.Args[0])
			key.a1 = g.valueNum(v.Args[1])
			if v.Op.IsCommutative() && key.a1 < key.a0 {
				key.a0, key.a1 = key.a1, key.a0
			}
		}
		if rep, ok := table[key]; ok {
			g.repl[v.ID] = rep
			g.dead[v.ID] = true
			removed = true
			continue
		}
		table[key] = v
		g.p.added = append(g.p.added, key)
	}
	if removed {
		b.RemoveInstrs(g.dead)
		g.changed = true
	}
	// Phis and terminators also need operand resolution.
	for _, phi := range b.Phis {
		g.resolveArgs(phi)
	}
	if b.Term != nil {
		g.resolveArgs(b.Term)
	}
	for _, c := range g.dom.Children(b) {
		g.visit(c)
	}
	for _, k := range g.p.added[mark:] {
		delete(table, k)
	}
	g.p.added = g.p.added[:mark]
}

// numberable reports whether the op can be value-numbered. Loads are not
// (memory may change); calls are not (effects); div/rem/indexaddr are —
// their traps are preserved by the dominating occurrence.
func numberable(op ir.Op) bool {
	if op.IsPure() {
		return op != ir.OpCopy // handled separately
	}
	switch op {
	case ir.OpDiv, ir.OpRem, ir.OpIndexAddr:
		return true
	}
	return false
}

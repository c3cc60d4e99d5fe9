package passes

import (
	"statefulcc/internal/analysis"
	"statefulcc/internal/ir"
)

// Scratch is one worker's reusable working memory for the passes: the
// analyses they rebuild per function and the dense side tables (indexed by
// Value.ID or Block.ID, see ir.Dense) that stand where pointer-keyed maps
// would. A pass re-sizes and zeroes the tables it uses when it starts on a
// function, so nothing a previous function or pass left behind is ever
// read; what is kept is only the backing memory.
//
// Ownership: one Scratch per worker — the pipeline driver of one
// compiler.Compiler hands the same Scratch to every pass instance it
// created — and never two goroutines on one Scratch. A pass never given
// one (UseScratch) makes its own on first use.
type Scratch struct {
	dom   analysis.DomTree
	loops analysis.LoopInfo
	clone ir.CloneMap

	// Per value ID.
	repl  []*ir.Value // replaced value → replacement (ir.Func.ReplaceUses)
	flag  []bool      // dead instructions, live values, hoisted values, …
	index []int32     // value → small integer (promoted slot, pointer root, …)

	// Per block ID.
	blockFlag  []bool
	blockStamp []int32

	values []*ir.Value // work list, or a second value-to-value table
	blocks []*ir.Block // work list
	nums   []int32     // work list

	mem2reg promoter
	sccp    sccpState
	dse     []allocaInfo
}

// Release drops every reference the scratch holds into the IR it last
// worked on (see ir.Wipe), keeping the memory. The owner calls it when a
// unit is done: a resident worker would otherwise pin its last unit's IR
// between builds.
func (s *Scratch) Release() {
	s.dom.Release()
	s.loops.Release()
	s.clone.Release()
	ir.Wipe(s.repl)
	ir.Wipe(s.values)
	ir.Wipe(s.blocks)
	m, c := &s.mem2reg, &s.sccp
	m.f, m.dom, m.repl, c.f = nil, nil, nil, nil
	ir.Wipe(m.allocas)
	ir.Wipe(m.cur)
	ir.Wipe(m.defBlock)
	ir.Wipe(m.placed)
	ir.Wipe(m.undo)
	ir.Wipe(c.userList)
	ir.Wipe(c.ssaWork)
	ir.Wipe(c.flowWork)
}

// replTable returns the replacement table, emptied and sized for f.
func (s *Scratch) replTable(f *ir.Func) []*ir.Value {
	s.repl = ir.Dense(s.repl, f.NumValues())
	return s.repl
}

// flagTable returns the per-value flags, cleared and sized for f.
func (s *Scratch) flagTable(f *ir.Func) []bool {
	s.flag = ir.Dense(s.flag, f.NumValues())
	return s.flag
}

// indexTable returns the per-value integers, zeroed and sized for f.
func (s *Scratch) indexTable(f *ir.Func) []int32 {
	s.index = ir.Dense(s.index, f.NumValues())
	return s.index
}

// scratchUser is embedded by every pass that needs working memory.
type scratchUser struct{ s *Scratch }

func (u *scratchUser) setScratch(s *Scratch) { u.s = s }

func (u *scratchUser) scratch() *Scratch {
	if u.s == nil {
		u.s = &Scratch{}
	}
	return u.s
}

// UseScratch makes a pass instance that keeps working memory work in s,
// which it then shares with every other pass s was given to; passes without
// working memory are left alone.
func UseScratch(pass any, s *Scratch) {
	if u, ok := pass.(interface{ setScratch(*Scratch) }); ok {
		u.setScratch(s)
	}
}

package passes

// Module-level global and function cleanup. MiniC treats names with a '_'
// prefix as unit-private (the analogue of C's static), which is what makes
// these passes sound without whole-program information: public symbols may
// be referenced by other units and are never touched.

import (
	"statefulcc/internal/ir"
)

// GlobalOpt removes unreferenced private globals and turns loads of
// never-stored private scalar globals into constants.
type GlobalOpt struct {
	scratchUser
	// addr[v.ID] is the usage of the global whose address v is or derives
	// from through indexaddr (nil: none), for the function being scanned.
	addr []*globalUsage
}

// Name implements ModulePass.
func (*GlobalOpt) Name() string { return "globalopt" }

// globalUsage summarizes how a global is accessed within the module.
type globalUsage struct {
	addrTaken bool // any OpGlobalAddr refers to it
	stored    bool // a store reaches it (directly or via indexaddr)
	escaped   bool // its address flows somewhere we do not track
	used      bool // after constification, an instruction still uses its address
	dropped   bool // removed from the module
}

func (p *GlobalOpt) analyzeGlobals(m *ir.Module) map[string]*globalUsage {
	usage := make(map[string]*globalUsage, len(m.Globals))
	for _, g := range m.Globals {
		usage[g.Name] = &globalUsage{}
	}
	for _, f := range m.Funcs {
		addr := ir.Dense(p.addr, f.NumValues())
		p.addr = addr
		addrOf := func(a *ir.Value) *globalUsage {
			if a.Op == ir.OpGlobalAddr || a.Op == ir.OpIndexAddr {
				return addr[a.ID]
			}
			return nil
		}
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op == ir.OpGlobalAddr {
					if u := usage[v.Sym]; u != nil {
						u.addrTaken = true
						addr[v.ID] = u
					}
				}
			}
		}
		// One propagation round suffices for indexaddr chains of depth 1;
		// iterate for safety.
		for grew := true; grew; {
			grew = false
			for _, b := range f.Blocks {
				for _, v := range b.Instrs {
					if v.Op == ir.OpIndexAddr && addr[v.ID] == nil {
						if u := addrOf(v.Args[0]); u != nil {
							addr[v.ID] = u
							grew = true
						}
					}
				}
			}
		}
		f.ForEachValue(func(v *ir.Value) {
			for i, a := range v.Args {
				u := addrOf(a)
				if u == nil {
					continue
				}
				switch {
				case v.Op == ir.OpLoad && i == 0:
					// read
				case v.Op == ir.OpStore && i == 0:
					u.stored = true
				case v.Op == ir.OpIndexAddr && i == 0:
					// tracked derivation
				default:
					u.escaped = true
				}
			}
		})
	}
	return usage
}

// RunModule implements ModulePass.
func (p *GlobalOpt) RunModule(m *ir.Module) bool {
	if len(m.Globals) == 0 {
		return false
	}
	s := p.scratch()
	usage := p.analyzeGlobals(m)
	changed := false

	// Constify loads of never-stored private scalars. Within a function
	// the constants are created global by global in declaration order,
	// loads in layout order within each, which fixes the IDs they take.
	for _, f := range m.Funcs {
		loads := s.values[:0]
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if v.Op == ir.OpLoad && v.Args[0].Op == ir.OpGlobalAddr && usage[v.Args[0].Sym] != nil {
					loads = append(loads, v)
				}
			}
		}
		s.values = loads
		if len(loads) == 0 {
			continue
		}
		repl, dead := s.replTable(f), s.flagTable(f)
		replaced := false
		for _, g := range m.Globals {
			u := usage[g.Name]
			if !g.Private || g.Words != 1 || u.stored || u.escaped || !u.addrTaken {
				continue
			}
			for _, ld := range loads {
				if ld.Args[0].Sym == g.Name {
					repl[ld.ID] = makeConst(f, g.Init, ld.Type)
					dead[ld.ID] = true
					replaced = true
				}
			}
		}
		if replaced {
			f.ReplaceUses(repl)
			for _, b := range f.Blocks {
				b.RemoveInstrs(dead)
			}
			changed = true
		}
	}

	// Remove private globals that are no longer referenced at all
	// (recompute after constification deleted loads; the GlobalAddr values
	// may linger until DCE, so check for remaining addresses directly).
	for _, f := range m.Funcs {
		used := s.flagTable(f)
		f.ForEachValue(func(v *ir.Value) {
			for _, a := range v.Args {
				if a.Op == ir.OpGlobalAddr {
					used[a.ID] = true
				}
			}
		})
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if u := usage[v.Sym]; v.Op == ir.OpGlobalAddr && used[v.ID] && u != nil {
					u.used = true
				}
			}
		}
	}
	keep := m.Globals[:0]
	for _, g := range m.Globals {
		if u := usage[g.Name]; g.Private && !u.used {
			u.dropped = true
			changed = true
			continue
		}
		keep = append(keep, g)
	}
	if len(keep) == len(m.Globals) {
		return changed
	}
	m.Globals = keep
	// Also delete the now-dangling GlobalAddr instructions.
	for _, f := range m.Funcs {
		dead := s.flagTable(f)
		for _, b := range f.Blocks {
			for _, v := range b.Instrs {
				if u := usage[v.Sym]; v.Op == ir.OpGlobalAddr && u != nil && u.dropped {
					dead[v.ID] = true
				}
			}
			b.RemoveInstrs(dead)
		}
	}
	return changed
}

// DeadFunc removes unit-private functions that are never called within the
// module, iterating because removing one may orphan another.
type DeadFunc struct{}

// Name implements ModulePass.
func (*DeadFunc) Name() string { return "deadfunc" }

// RunModule implements ModulePass.
func (*DeadFunc) RunModule(m *ir.Module) bool {
	changed := false
	for {
		called := make(map[string]bool)
		for _, f := range m.Funcs {
			f.ForEachValue(func(v *ir.Value) {
				if v.Op == ir.OpCall {
					called[v.Sym] = true
				}
			})
		}
		removed := false
		for _, f := range append([]*ir.Func(nil), m.Funcs...) {
			if f.Private && !called[f.Name] && f.Name != "main" {
				m.RemoveFunc(f.Name)
				removed = true
				changed = true
			}
		}
		if !removed {
			return changed
		}
	}
}

// PruneDeadFuncs removes, before any pass runs, the functions a pipeline
// holding deadfunc would optimize only for deadfunc to delete, and returns
// how many it removed. It drops a connected component of the undirected
// call graph over the module's defined functions when every function in it
// is private, is not main and names no private global, and its calls among
// themselves form no cycle (a self-call counts).
//
// The pipeline's output is the same without the component:
//
//   - No call edge joins it to the rest of the module, so no other function
//     inlines one of its bodies, and callGraphPostorder, whose walks never
//     cross between it and the rest, orders the rest the same without it.
//   - globalopt constifies and removes private globals only, from usage
//     flags only functions naming them set.
//   - Nothing outside calls into it, and inlining within it adds no cycle,
//     so its call graph is still acyclic and uncalled from outside when
//     deadfunc runs: deadfunc's fixpoint removes all of it, and its calls
//     decide nothing about the rest. A cycle is left alone because
//     deadfunc keeps one whose calls the pipeline did not delete.
//
// A dead function naming a private global is kept even when nothing calls
// it: a store it holds blocks constification until globalopt runs.
func PruneDeadFuncs(m *ir.Module) int { return PruneDeadFuncsBy(m, nil) }

// RefsOf appends to calls the callee of every call f makes, in order, and
// reports whether f names a private global of m: what PruneDeadFuncs reads
// of a function.
func RefsOf(m *ir.Module, f *ir.Func, calls []string) ([]string, bool) {
	private := false
	f.ForEachValue(func(v *ir.Value) {
		switch v.Op {
		case ir.OpCall:
			calls = append(calls, v.Sym)
		case ir.OpGlobalAddr:
			if !private {
				g := m.FindGlobal(v.Sym)
				private = g != nil && g.Private
			}
		}
	})
	return calls, private
}

// PruneDeadFuncsBy is PruneDeadFuncs with what it reads of some functions
// given: refs(i), when it reports ok, returns RefsOf(m, m.Funcs[i]) as they
// were, and the function's body is not read (it may have none yet). A nil
// refs reads every body.
func PruneDeadFuncsBy(m *ir.Module, refs func(i int) (calls []string, private, ok bool)) int {
	n := len(m.Funcs)
	if n == 0 {
		return 0
	}
	index := make(map[string]int, n)
	for i, f := range m.Funcs {
		index[f.Name] = i
	}
	root := make([]int, n)  // union-find forest over the undirected graph
	keep := make([]bool, n) // the function fails the test; at a root: the component stays
	calls := make([]int, n) // call sites naming the function, within the module
	type edge struct{ from, to int }
	var edges []edge
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	for i := range root {
		root[i] = i
	}
	var read []string
	for i, f := range m.Funcs {
		var callees []string
		private, ok := false, false
		if refs != nil {
			callees, private, ok = refs(i)
		}
		if !ok {
			read, private = RefsOf(m, f, read[:0])
			callees = read
		}
		keep[i] = !f.Private || f.Name == "main" || private
		for _, callee := range callees {
			if j, ok := index[callee]; ok {
				edges = append(edges, edge{i, j})
				calls[j]++
				root[find(i)] = find(j)
			}
		}
	}
	// Peel uncalled functions as deadfunc does; what is left is kept (a
	// cycle, or called from one).
	peeled := make([]bool, n)
	for progress := true; progress; {
		progress = false
		for i := range peeled {
			if peeled[i] || calls[i] > 0 {
				continue
			}
			peeled[i], progress = true, true
			for _, e := range edges {
				if e.from == i {
					calls[e.to]--
				}
			}
		}
	}
	for i := range keep {
		if keep[i] || !peeled[i] {
			keep[find(i)] = true
		}
	}
	out := m.Funcs[:0]
	for i, f := range m.Funcs {
		if keep[find(i)] {
			out = append(out, f)
		}
	}
	pruned := n - len(out)
	clear(m.Funcs[len(out):])
	m.Funcs = out
	return pruned
}

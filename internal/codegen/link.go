package codegen

// The linker combines compiled objects into an executable Program: it lays
// out the global segment, checks every call and global-address site of every
// object (the sites Object.Validate recorded) against the relocation tables
// and the definitions, and emits the functions main reaches — copied, their
// strings merged, their relocations patched — with program-wide indices. A
// function main does not reach is checked like any other and then left out:
// the program keeps its name and digest. Objects are never mutated — the
// build system caches them across builds — so every emitted function body is
// copied first; the argument pools, which nothing patches, are shared with
// the objects.

import (
	"fmt"
	"sort"
)

// Link combines objects into a runnable program. Objects may arrive in any
// order; layout is made deterministic by sorting on unit name.
func Link(objects []*Object) (*Program, error) {
	objs := make([]*Object, len(objects))
	copy(objs, objects)
	sort.SliceStable(objs, func(i, j int) bool { return objs[i].Unit < objs[j].Unit })

	nFuncs, nCalls, nGlobals := 0, 0, 0
	for _, o := range objs {
		nFuncs += len(o.Funcs)
		nCalls += len(o.Relocs)
		nGlobals += len(o.GlobalRelocs)
	}
	p := &Program{
		GlobalIndex: make(map[string]int),
		EntryIndex:  -1,
	}

	// Pass 1: lay out globals and number every function in layout order.
	all := make([]*FuncCode, 0, nFuncs)
	number := make(map[string]int32, nFuncs)
	for _, o := range objs {
		if len(o.Digests) != len(o.Funcs) {
			return nil, fmt.Errorf("link: unit %s was never validated (Object.Validate records the digests a program keeps)", o.Unit)
		}
		for _, g := range o.Globals {
			if _, dup := p.GlobalIndex[g.Name]; dup {
				return nil, fmt.Errorf("link: duplicate global %s (unit %s)", g.Name, o.Unit)
			}
			p.GlobalIndex[g.Name] = p.GlobalWords
			for w := int64(0); w < g.Words; w++ {
				v := int64(0)
				if w == 0 && g.Words == 1 {
					v = g.Init
				}
				p.GlobalInit = append(p.GlobalInit, v)
			}
			p.GlobalWords += int(g.Words)
		}
		for _, f := range o.Funcs {
			if _, dup := number[f.Name]; dup {
				return nil, fmt.Errorf("link: duplicate function %s (unit %s)", f.Name, o.Unit)
			}
			number[f.Name] = int32(len(all))
			all = append(all, f)
		}
	}

	// Pass 2: resolve every call and global-address site of every function,
	// reachable or not — what is wrong in code main never calls is still
	// wrong. The sites are the ones Validate found in the code, in the order
	// of the code, and an object's relocations are in site order too, so a
	// cursor per table walks them beside the sites. What a site resolved to
	// is kept in site order: function n's callees are
	// callees[calleeStart[n]:calleeStart[n+1]], its global addresses likewise.
	callees, calleeStart := make([]int32, 0, nCalls), make([]int32, 0, nFuncs+1)
	addrs, addrStart := make([]int32, 0, nGlobals), make([]int32, 0, nFuncs+1)
	for _, o := range objs {
		calls, globals, sites := relocCursor(o.Relocs), relocCursor(o.GlobalRelocs), o.sites
		for fi, f := range o.Funcs {
			calleeStart, addrStart = append(calleeStart, int32(len(callees))), append(addrStart, int32(len(addrs)))
			for ; len(sites) > 0 && int(sites[0].fn) == fi; sites = sites[1:] {
				pc := int(sites[0].pc)
				if sites[0].args >= 0 {
					sym, ok := calls.take(fi, pc)
					if !ok {
						return nil, errNoReloc(o, f, pc)
					}
					n, ok := number[sym]
					if !ok {
						return nil, fmt.Errorf("link: undefined function %s (called from %s in unit %s)",
							sym, f.Name, o.Unit)
					}
					if int(sites[0].args) != all[n].NumParams {
						return nil, fmt.Errorf("link: %s calls %s with %d args, want %d",
							f.Name, sym, sites[0].args, all[n].NumParams)
					}
					callees = append(callees, n)
				} else {
					sym, ok := globals.take(fi, pc)
					if !ok {
						return nil, errNoReloc(o, f, pc)
					}
					addr, ok := p.GlobalIndex[sym]
					if !ok {
						return nil, fmt.Errorf("link: undefined global %s (used by %s in unit %s)",
							sym, f.Name, o.Unit)
					}
					addrs = append(addrs, int32(addr))
				}
			}
		}
		if len(calls)+len(globals) != 0 {
			return nil, fmt.Errorf("link: unit %s has %d relocation(s) that name no call or global-address site in order",
				o.Unit, len(calls)+len(globals))
		}
	}
	calleeStart, addrStart = append(calleeStart, int32(len(callees))), append(addrStart, int32(len(addrs)))

	entry, ok := number["main"]
	if !ok {
		return nil, fmt.Errorf("link: no main function")
	}
	if all[entry].NumParams != 0 {
		return nil, fmt.Errorf("link: main must take no parameters")
	}

	// Pass 3: what main reaches. index[n] becomes function n's index in the
	// program, -1 for a function left out.
	const unreached, unnumbered = -1, -2
	index := make([]int32, len(all))
	for n := range index {
		index[n] = unreached
	}
	index[entry] = unnumbered
	for work := []int32{entry}; len(work) > 0; {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range callees[calleeStart[n]:calleeStart[n+1]] {
			if index[callee] == unreached {
				index[callee] = unnumbered
				work = append(work, callee)
			}
		}
	}
	nReached := int32(0)
	for n := range index {
		if index[n] == unnumbered {
			index[n] = nReached
			nReached++
		}
	}

	// Pass 4: emit. A reached function is copied, its strings merged into the
	// program's table and its sites patched with what pass 2 resolved them
	// to; of any other, the name and the digest.
	p.Funcs = make([]*FuncCode, 0, nReached)
	p.FuncIndex = make(map[string]int, nReached)
	p.Unreached = make([]Unreached, 0, len(all)-int(nReached))
	p.EntryIndex = int(index[entry])
	strIndex := make(map[string]int64)
	n := 0
	for _, o := range objs {
		for fi, f := range o.Funcs {
			if index[n] == unreached {
				p.Unreached = append(p.Unreached, Unreached{Name: f.Name, Digest: o.Digests[fi]})
				n++
				continue
			}
			nf := *f // shares f.Args: the pool is never written
			nf.Code = make([]Instr, len(f.Code))
			copy(nf.Code, f.Code)
			calls, globals := callees[calleeStart[n]:], addrs[addrStart[n]:]
			for pc := range nf.Code {
				switch in := &nf.Code[pc]; in.Op {
				case IPrint, IAssert:
					if in.Imm >= 0 {
						s := o.Strings[in.Imm]
						idx, ok := strIndex[s]
						if !ok {
							idx = int64(len(p.Strings))
							strIndex[s] = idx
							p.Strings = append(p.Strings, s)
						}
						in.Imm = idx
					}
				case ICall:
					in.Imm, calls = int64(index[calls[0]]), calls[1:]
				case IGAddr:
					in.Imm, globals = int64(globals[0]), globals[1:]
				}
			}
			p.FuncIndex[f.Name] = len(p.Funcs)
			p.Funcs = append(p.Funcs, &nf)
			n++
		}
	}
	return p, nil
}

func errNoReloc(o *Object, f *FuncCode, pc int) error {
	return fmt.Errorf("link: %s at pc %d of %s (unit %s) has no relocation, or the unit's relocations are out of site order",
		f.Code[pc].Op, pc, f.Name, o.Unit)
}

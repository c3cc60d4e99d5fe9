package codegen

// The linker combines compiled objects into an executable Program: it lays
// out the global segment, assigns program-wide function indices, merges
// string tables, and patches call and global-address relocations. Objects
// are never mutated — the build system caches them across builds — so every
// patched function body is copied first; the argument pools, which nothing
// patches, are shared with the objects.

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

	p := &Program{
		FuncIndex:   make(map[string]int),
		GlobalIndex: make(map[string]int),
		EntryIndex:  -1,
	}

	// Pass 1: lay out globals and functions.
	for _, o := range objs {
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
			if _, dup := p.FuncIndex[f.Name]; dup {
				return nil, fmt.Errorf("link: duplicate function %s (unit %s)", f.Name, o.Unit)
			}
			p.FuncIndex[f.Name] = len(p.Funcs)
			p.Funcs = append(p.Funcs, f) // replaced by a patched copy below
		}
	}

	// Pass 2: copy function bodies, remap strings, patch relocations. An
	// object's relocations are in site order (Object.Validate), so a cursor
	// per table walks them beside the code.
	for _, o := range objs {
		strMap := make([]int64, len(o.Strings))
		for i, s := range o.Strings {
			strMap[i] = int64(p.internString(s))
		}
		calls, globals := relocCursor(o.Relocs), relocCursor(o.GlobalRelocs)

		for fi, f := range o.Funcs {
			nf := *f // shares f.Args: the pool is never written
			nf.Code = make([]Instr, len(f.Code))
			copy(nf.Code, f.Code)
			for pc := range nf.Code {
				in := &nf.Code[pc]
				switch in.Op {
				case IPrint, IAssert:
					if in.Imm >= 0 {
						in.Imm = strMap[in.Imm]
					}
				case ICall:
					sym, ok := calls.take(fi, pc)
					if !ok {
						return nil, errNoReloc(o, f, pc)
					}
					idx, ok := p.FuncIndex[sym]
					if !ok {
						return nil, fmt.Errorf("link: undefined function %s (called from %s in unit %s)",
							sym, f.Name, o.Unit)
					}
					callee := p.Funcs[idx]
					if int(in.C) != callee.NumParams {
						return nil, fmt.Errorf("link: %s calls %s with %d args, want %d",
							f.Name, sym, in.C, callee.NumParams)
					}
					in.Imm = int64(idx)
				case IGAddr:
					sym, ok := globals.take(fi, pc)
					if !ok {
						return nil, errNoReloc(o, f, pc)
					}
					addr, ok := p.GlobalIndex[sym]
					if !ok {
						return nil, fmt.Errorf("link: undefined global %s (used by %s in unit %s)",
							sym, f.Name, o.Unit)
					}
					in.Imm = int64(addr)
				}
			}
			p.Funcs[p.FuncIndex[f.Name]] = &nf
		}
		if len(calls)+len(globals) != 0 {
			return nil, fmt.Errorf("link: unit %s has %d relocation(s) that name no call or global-address site in order",
				o.Unit, len(calls)+len(globals))
		}
	}

	if idx, ok := p.FuncIndex["main"]; ok {
		p.EntryIndex = idx
		if p.Funcs[idx].NumParams != 0 {
			return nil, fmt.Errorf("link: main must take no parameters")
		}
	} else {
		return nil, fmt.Errorf("link: no main function")
	}
	return p, nil
}

func errNoReloc(o *Object, f *FuncCode, pc int) error {
	return fmt.Errorf("link: %s at pc %d of %s (unit %s) has no relocation, or the unit's relocations are out of site order",
		f.Code[pc].Op, pc, f.Name, o.Unit)
}

func (p *Program) internString(s string) int32 {
	for i, t := range p.Strings {
		if t == s {
			return int32(i)
		}
	}
	p.Strings = append(p.Strings, s)
	return int32(len(p.Strings) - 1)
}

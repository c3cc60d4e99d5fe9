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
//
// A Linker links one project build after build and checks again only what
// moved. An object is immutable once validated, so what checking its sites
// found stays true while the symbols it names keep their definitions: a link
// checks the objects it has not checked before and the ones that name a
// function that went away or changed its arity, or a global that went away.
// The global segment is laid out again only when an object's globals changed.
// The reach walk and the emit are redone every time, for what main reaches,
// and a reached function whose sites all come out as they did in the last
// link keeps the copy that link made of it. Link is the link of a Linker that has linked nothing before: it checks
// every object, in layout order, and so gives the error a full check finds
// first — which is what a Linker gives too, since after any error it forgets
// what it knew and checks everything again.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Link combines objects into a runnable program. Objects may arrive in any
// order; layout is made deterministic by sorting on unit name.
func Link(objects []*Object) (*Program, error) {
	return new(Linker).Link(objects)
}

// Linker links the objects of one project again and again, checking only the
// objects that moved and those that name a symbol that moved (see the top of
// this file). Its zero value links like Link. A Linker is not safe for
// concurrent use. The programs it returns may share their global segment
// (GlobalInit, GlobalIndex) and the copies of their functions with each
// other; nothing writes them.
type Linker struct {
	// order holds the entries of the objects of the last link that
	// succeeded, in layout order.
	order []*linked
	// funcs is every function of order's objects by name.
	funcs map[string]funcDef
	// segment is the global segment of the last link that succeeded.
	segment globalSegment
	// gen numbers the links: an entry stamped with the current one is in it.
	gen uint64
	// checked is how many objects the last link checked.
	checked int
}

// linked is one object of a link and what checking it found.
type linked struct {
	obj *Object
	// digests is obj.Digests when the object was checked: Validate makes a
	// new slice, so an object validated again (after an edit) is a new one.
	digests []uint64
	gen     uint64 // the link the entry is part of
	pos     int    // its place in that link's layout
	fresh   bool   // not checked before this link
	// funcs holds, for each function, the last link main reached it in and
	// the linked copy that link emitted of it; made when main first reaches
	// one of the object's functions.
	funcs []reach
}

// reach is a function's part in the links that reached it.
type reach struct {
	gen    uint64
	linked *FuncCode
}

// funcDef is where a function is defined — function fi of at's object —
// and its arity.
type funcDef struct {
	at         *linked
	fi, params int32
}

func (d funcDef) code() *FuncCode { return d.at.obj.Funcs[d.fi] }

func (d funcDef) reach() *reach {
	if d.at.funcs == nil {
		d.at.funcs = make([]reach, len(d.at.obj.Funcs))
	}
	return &d.at.funcs[d.fi]
}

// globalSegment is a laid-out global segment, as a Program holds it.
type globalSegment struct {
	words int
	init  []int64
	index map[string]int
}

// Checked returns how many objects the last Link checked the sites of.
func (l *Linker) Checked() int { return l.checked }

// Link combines objects into a runnable program, like the package-level
// Link, checking again only what moved since this Linker's last link that
// succeeded. A link that fails leaves the Linker as its zero value, but for
// Checked.
func (l *Linker) Link(objects []*Object) (*Program, error) {
	warm := len(l.order) > 0
	p, err := l.link(objects)
	if err != nil && warm {
		// What moved was checked in an order of its own; the full check
		// finds the error in the order a full check does.
		*l = Linker{}
		p, err = l.link(objects)
	}
	if err != nil {
		*l = Linker{checked: l.checked}
	}
	return p, err
}

func (l *Linker) link(objects []*Object) (*Program, error) {
	objs := make([]*Object, len(objects))
	copy(objs, objects)
	byUnit := func(a, b *Object) int { return strings.Compare(a.Unit, b.Unit) }
	if !slices.IsSortedFunc(objs, byUnit) {
		slices.SortStableFunc(objs, byUnit)
	}
	l.gen++
	l.checked = 0

	// Which objects are new to the Linker, and which of the last link's are
	// gone: their functions leave the table, and a name that is not back with
	// the same arity once the new objects are in has moved. Both links are in
	// layout order, so one walk beside the last finds the objects it had;
	// the new objects' entries are cut from one block.
	order, nFresh, nFuncs := make([]*linked, len(objs)), 0, 0
	for i, j := 0, 0; i < len(objs); i++ {
		o := objs[i]
		for j < len(l.order) && l.order[j].obj != o && l.order[j].obj.Unit < o.Unit {
			j++
		}
		if j < len(l.order) && l.order[j].obj == o && sameDigests(l.order[j].digests, o.Digests) {
			e := l.order[j]
			e.gen, e.pos = l.gen, i
			order[i] = e
			j++
			continue
		}
		nFresh++
		nFuncs += len(o.Funcs)
	}
	if l.funcs == nil {
		l.funcs = make(map[string]funcDef, nFuncs)
	}
	fresh := make([]linked, nFresh)
	for i, o := range objs {
		if order[i] == nil {
			e := &fresh[0]
			fresh = fresh[1:]
			*e = linked{obj: o, digests: o.Digests, gen: l.gen, pos: i, fresh: true}
			order[i] = e
		}
	}
	relayout := l.segment.index == nil || len(order) != len(l.order)
	for i := 0; !relayout && i < len(order); i++ {
		relayout = order[i] != l.order[i] && !slices.Equal(order[i].obj.Globals, l.order[i].obj.Globals)
	}
	type gone struct {
		name   string
		params int
	}
	var goneFuncs []gone
	for _, e := range l.order {
		if e.gen == l.gen {
			continue
		}
		for _, f := range e.obj.Funcs {
			if d, ok := l.funcs[f.Name]; ok && d.at == e {
				delete(l.funcs, f.Name)
				goneFuncs = append(goneFuncs, gone{f.Name, f.NumParams})
			}
		}
		*e = linked{} // its block may outlive it: hold on to no object
	}

	// Pass 1: lay out globals when they changed, and enter the new objects'
	// functions.
	seg := l.segment
	if relayout {
		n := 0
		for _, o := range objs {
			n += len(o.Globals)
		}
		seg = globalSegment{index: make(map[string]int, n)}
	}
	for _, e := range order {
		o := e.obj
		if e.fresh && len(o.Digests) != len(o.Funcs) {
			return nil, fmt.Errorf("link: unit %s was never validated (Object.Validate records the digests a program keeps)", o.Unit)
		}
		globals := o.Globals
		if !relayout {
			globals = nil // laid out as they were
		}
		for _, g := range globals {
			if _, dup := seg.index[g.Name]; dup {
				return nil, fmt.Errorf("link: duplicate global %s (unit %s)", g.Name, o.Unit)
			}
			seg.index[g.Name] = seg.words
			for w := int64(0); w < g.Words; w++ {
				v := int64(0)
				if w == 0 && g.Words == 1 {
					v = g.Init
				}
				seg.init = append(seg.init, v)
			}
			seg.words += int(g.Words)
		}
		if !e.fresh {
			continue
		}
		for fi, f := range o.Funcs {
			if _, dup := l.funcs[f.Name]; dup {
				return nil, fmt.Errorf("link: duplicate function %s (unit %s)", f.Name, o.Unit)
			}
			l.funcs[f.Name] = funcDef{e, int32(fi), int32(f.NumParams)}
		}
	}
	var movedFuncs, movedGlobals []string
	for _, g := range goneFuncs {
		if d, ok := l.funcs[g.name]; !ok || int(d.params) != g.params {
			movedFuncs = append(movedFuncs, g.name)
		}
	}
	if relayout {
		for name := range l.segment.index {
			if _, ok := seg.index[name]; !ok {
				movedGlobals = append(movedGlobals, name)
			}
		}
	}

	// Pass 2: check the sites of the new objects, and of the others that name
	// a symbol that moved — what is wrong in code main never calls is still
	// wrong.
	for _, e := range order {
		if e.fresh || names(e.obj.Relocs, movedFuncs) || names(e.obj.GlobalRelocs, movedGlobals) {
			if err := l.check(e.obj, seg.index); err != nil {
				return nil, err
			}
		}
	}
	main, ok := l.funcs["main"]
	if !ok {
		return nil, fmt.Errorf("link: no main function")
	}
	if main.params != 0 {
		return nil, fmt.Errorf("link: main must take no parameters")
	}

	// Pass 3: what main reaches, in layout order.
	reached := []funcDef{main}
	main.reach().gen = l.gen
	for i := 0; i < len(reached); i++ {
		d := reached[i]
		for _, r := range relocsOf(d.at.obj.Relocs, d.fi) {
			if callee := l.funcs[r.Symbol]; callee.reach().gen != l.gen {
				callee.reach().gen = l.gen
				reached = append(reached, callee)
			}
		}
	}
	slices.SortFunc(reached, func(a, b funcDef) int {
		if a.at.pos != b.at.pos {
			return a.at.pos - b.at.pos
		}
		return int(a.fi - b.fi)
	})

	// Pass 4: emit. A reached function is copied, its strings merged into the
	// program's table and its sites patched (emit); of any other, the name and
	// the digest.
	p := &Program{
		Funcs:       make([]*FuncCode, len(reached)),
		FuncIndex:   make(map[string]int, len(reached)),
		Unreached:   make([]Unreached, 0, len(l.funcs)-len(reached)),
		GlobalWords: seg.words,
		GlobalInit:  seg.init,
		GlobalIndex: seg.index,
	}
	for i, d := range reached {
		p.FuncIndex[d.code().Name] = i
	}
	p.EntryIndex = p.FuncIndex["main"]
	next := reached
	for _, e := range order {
		for fi, f := range e.obj.Funcs {
			if len(next) > 0 && next[0].at == e && int(next[0].fi) == fi {
				next = next[1:]
				continue
			}
			p.Unreached = append(p.Unreached, Unreached{Name: f.Name, Digest: e.obj.Digests[fi]})
		}
	}
	strIndex := make(map[string]int64)
	for i, d := range reached {
		p.Funcs[i] = emit(p, strIndex, d)
	}

	for _, e := range order {
		e.fresh = false
	}
	l.order, l.segment = order, seg
	return p, nil
}

// emit returns the linked copy of function d for p, merging its strings into
// p's table as it goes. The object is immutable, so a copy differs from the
// function only at its sites, and the copy the last link made of it is
// returned again when every site comes out as it did then. Otherwise the copy
// is a new one: the programs a Linker returned are never written.
func emit(p *Program, strIndex map[string]int64, d funcDef) *FuncCode {
	e, f, r := d.at, d.code(), d.reach()
	prev, code, owned := r.linked, f.Code, false
	if prev != nil {
		code = prev.Code
	} else {
		code, owned = slices.Clone(code), true
	}
	calls, addrs := relocsOf(e.obj.Relocs, d.fi), relocsOf(e.obj.GlobalRelocs, d.fi)
	for pc := range f.Code {
		var imm int64
		switch in := &f.Code[pc]; in.Op {
		case IPrint, IAssert:
			if in.Imm < 0 {
				continue
			}
			s := e.obj.Strings[in.Imm]
			idx, ok := strIndex[s]
			if !ok {
				idx = int64(len(p.Strings))
				strIndex[s] = idx
				p.Strings = append(p.Strings, s)
			}
			imm = idx
		case ICall:
			imm, calls = int64(p.FuncIndex[calls[0].Symbol]), calls[1:]
		case IGAddr:
			imm, addrs = int64(p.GlobalIndex[addrs[0].Symbol]), addrs[1:]
		default:
			continue
		}
		if code[pc].Imm != imm {
			if !owned {
				code, owned = slices.Clone(code), true
			}
			code[pc].Imm = imm
		}
	}
	if !owned {
		return prev
	}
	nf := *f // shares f.Args: the pool is never written
	nf.Code = code
	r.linked = &nf
	return &nf
}

// check resolves every call and global-address site of e's object against
// the function table and the global segment. The sites are the ones Validate
// found in the code, in the order of the code, and an object's relocations
// are in site order too, so a cursor per table walks them beside the sites.
func (l *Linker) check(o *Object, globals map[string]int) error {
	l.checked++
	calls, addrs, sites := relocCursor(o.Relocs), relocCursor(o.GlobalRelocs), o.sites
	for fi, f := range o.Funcs {
		for ; len(sites) > 0 && int(sites[0].fn) == fi; sites = sites[1:] {
			pc := int(sites[0].pc)
			if sites[0].args >= 0 {
				sym, ok := calls.take(fi, pc)
				if !ok {
					return errNoReloc(o, f, pc)
				}
				d, ok := l.funcs[sym]
				if !ok {
					return fmt.Errorf("link: undefined function %s (called from %s in unit %s)",
						sym, f.Name, o.Unit)
				}
				if sites[0].args != d.params {
					return fmt.Errorf("link: %s calls %s with %d args, want %d",
						f.Name, sym, sites[0].args, d.params)
				}
			} else {
				sym, ok := addrs.take(fi, pc)
				if !ok {
					return errNoReloc(o, f, pc)
				}
				if _, ok := globals[sym]; !ok {
					return fmt.Errorf("link: undefined global %s (used by %s in unit %s)",
						sym, f.Name, o.Unit)
				}
			}
		}
	}
	if len(calls)+len(addrs) != 0 {
		return fmt.Errorf("link: unit %s has %d relocation(s) that name no call or global-address site in order",
			o.Unit, len(calls)+len(addrs))
	}
	return nil
}

// relocsOf returns the relocations of function fi in a table a check found
// in site order.
func relocsOf(relocs []Reloc, fi int32) []Reloc {
	start := sort.Search(len(relocs), func(i int) bool { return relocs[i].Func >= int(fi) })
	end := start
	for end < len(relocs) && relocs[end].Func == int(fi) {
		end++
	}
	return relocs[start:end]
}

// names reports whether a relocation of relocs names one of syms.
func names(relocs []Reloc, syms []string) bool {
	for i := 0; len(syms) > 0 && i < len(relocs); i++ {
		if slices.Contains(syms, relocs[i].Symbol) {
			return true
		}
	}
	return false
}

// sameDigests reports whether a and b are one slice.
func sameDigests(a, b []uint64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func errNoReloc(o *Object, f *FuncCode, pc int) error {
	return fmt.Errorf("link: %s at pc %d of %s (unit %s) has no relocation, or the unit's relocations are out of site order",
		f.Code[pc].Op, pc, f.Name, o.Unit)
}

package compiler

// Frontend reuse: the frontend is segment 0 of a compile under the Replay
// bit (core/frontend.go). A resident builder's compile of an edited unit
//
//  1. splits the source at depth 0 into its top-level declarations (split);
//  2. picks the functions to reuse: a function whose declaration's bytes
//     equal one of the unit's last compile, provided every top-level header
//     of that compile — a function's bytes up to its body, any other
//     declaration whole — is still there, byte for byte (plan);
//  3. parses the headers and passes over the reused bodies by offset, so
//     they are not lexed, parsed, checked or lowered: each is an empty
//     function in its place in declaration order, which the driver fills
//     from the memo (build; core/frontend.go);
//  4. and lets the soundness sentinel sample each reuse, lowering the
//     function normally for the driver to check against the memo.
//
// A unit that does not compile is compiled again with nothing reused, so
// its diagnostics are the ones a stateless compile gives.

import (
	"fmt"

	"statefulcc/internal/ast"
	"statefulcc/internal/core"
	"statefulcc/internal/ir"
	"statefulcc/internal/lexer"
	"statefulcc/internal/source"
)

// reuse is one worker's frontend-reuse memory, reused from unit to unit.
type reuse struct {
	decls []decl
	// old[k] is the ordinal of the function declaration of the unit's last
	// compile that the k-th declaration reuses, -1 for none; audit[k] is set
	// when the sentinel sampled that reuse. oldFuncs lists the function
	// declarations of the last compile by ordinal.
	old      []int32
	oldFuncs []int32
	audit    []bool
	bodies   []lexer.Span
	front    core.Front
}

// frontCounts is what one compile's frontend did: the functions it lowered
// and reused, and the source bytes it lexed.
type frontCounts struct{ lowered, reused, lexed int }

// frontend runs the frontend on one unit: in full, or, under Replay, with
// the reuse st's memo allows, handing the driver what it did.
func (c *Compiler) frontend(unitName string, src []byte, st *core.UnitState) (*ir.Module, frontCounts, error) {
	fe := &c.fe
	if c.opts.Mode&core.Replay == 0 {
		return fe.build(unitName, src, nil)
	}
	ru := &fe.reuse
	var ok bool
	ru.front.Seed = st.KeySeed()
	ru.decls, ru.front.Decls, ok = split(src, ru.decls, ru.front.Decls, ru.front.Seed)
	decls := ru.decls
	if !ok {
		decls, ru.front.Decls = nil, ru.front.Decls[:0]
	}
	reused := c.plan(decls, st)
	m, counts, err := fe.build(unitName, src, decls)
	if err != nil && reused {
		// Diagnostics come from a compile that reuses nothing.
		m, counts, err = fe.build(unitName, src, nil)
	}
	if err != nil {
		return nil, counts, err
	}
	c.driver.Frontend(&ru.front)
	return m, counts, nil
}

// plan fills ru.old and ru.audit for the declarations split found, keyed
// in ru.front.Decls, from st's memo. It reports whether any function is
// reused, audited ones included.
func (c *Compiler) plan(decls []decl, st *core.UnitState) bool {
	ru := &c.fe.reuse
	keys := ru.front.Decls
	ru.old = ir.Dense(ru.old, len(decls))
	ru.audit = ir.Dense(ru.audit, len(decls))
	for k := range ru.old {
		ru.old[k] = -1
	}
	old := st.LastFrontend()
	if len(old) == 0 || len(keys) == 0 || !headersKept(old, keys) {
		return false
	}
	ru.oldFuncs = ru.oldFuncs[:0]
	for i, od := range old {
		if od.Func {
			ru.oldFuncs = append(ru.oldFuncs, int32(i))
		}
	}
	some, o := false, 0
	for k, key := range keys {
		if !key.Func {
			continue
		}
		// Declarations mostly keep their order: look where the last match
		// left off first.
		for tries := 0; tries < len(ru.oldFuncs); tries++ {
			n := o
			o = (o + 1) % len(ru.oldFuncs)
			if old[ru.oldFuncs[n]] == key && st.Restorable(n) {
				ru.old[k] = int32(n)
				ru.audit[k] = c.driver.Sample()
				some = true
				break
			}
		}
	}
	return some
}

// headersKept reports whether every header among the old declaration keys
// is among the new ones.
func headersKept(old, keys []core.DeclKey) bool {
	k := 0
	for _, od := range old {
		found := false
		for tries := 0; tries < len(keys) && !found; tries++ {
			found = keys[k].Head == od.Head && keys[k].HeadLen == od.HeadLen
			k = (k + 1) % len(keys)
		}
		if !found {
			return false
		}
	}
	return true
}

// build runs the frontend on one unit: lex, parse, check and lower. The
// function bodies that decls' plan (reuse.old, reuse.audit) reuses are
// passed over unread and their functions left empty for the driver to fill;
// with no declarations every body is read. reuse.front says what was done.
func (fe *frontend) build(unitName string, src []byte, decls []decl) (*ir.Module, frontCounts, error) {
	defer fe.release()
	ru := &fe.reuse
	ru.bodies = ru.bodies[:0]
	for k, d := range decls {
		if ru.old[k] >= 0 && !ru.audit[k] {
			ru.bodies = append(ru.bodies, lexer.Span{Start: int(d.body), End: int(d.end)})
		}
	}
	counts := frontCounts{lexed: len(src)}
	for _, b := range ru.bodies {
		counts.lexed -= b.End - b.Start
	}
	var errs source.ErrorList
	file := source.NewFile(unitName, src)
	tree := fe.parse.ParseSkipping(file, &errs, ru.bodies)
	if errs.HasErrors() {
		errs.Sort()
		return nil, counts, fmt.Errorf("%s: %w", unitName, &errs)
	}
	if !agrees(tree, decls) {
		// A body passed over lies in the declaration the split put it in
		// only when the split's declarations are the parser's.
		if len(ru.bodies) > 0 {
			return nil, counts, fmt.Errorf("%s: declarations split unlike the parser's", unitName)
		}
		decls = nil
	}
	info := fe.check.Check(file, tree, &errs)
	if errs.HasErrors() {
		errs.Sort()
		return nil, counts, fmt.Errorf("%s: %w", unitName, &errs)
	}
	m, err := fe.lower.Build(unitName, tree, info)
	if err != nil {
		return nil, counts, err
	}
	// The functions are the tree's function declarations in order: a
	// redeclared one would have been an error.
	fr := &ru.front
	if decls == nil {
		fr.Decls = fr.Decls[:0]
	}
	fr.Funcs = fr.Funcs[:0]
	k, ord := 0, int32(0)
	for _, fd := range info.Funcs {
		for k < len(decls) && int(decls[k].start) != int(fd.FuncPos) {
			if decls[k].fn {
				ord++
			}
			k++
		}
		ff := core.FrontFunc{Decl: -1, Old: -1}
		if k < len(decls) {
			ff = core.FrontFunc{Decl: ord, Old: ru.old[k], Audit: ru.audit[k]}
		}
		if fd.Body == nil {
			counts.reused++
		} else {
			counts.lowered++
		}
		fr.Funcs = append(fr.Funcs, ff)
	}
	return m, counts, nil
}

// agrees reports whether the parser's declarations are the split's: the
// same number, each starting where the split's does, and each function
// read through the body the split found (or passed over at its start).
func agrees(tree *ast.File, decls []decl) bool {
	if len(tree.Decls) != len(decls) {
		return false
	}
	for k, d := range tree.Decls {
		sd := decls[k]
		if int(d.Pos()) != int(sd.start) {
			return false
		}
		fd, isFunc := d.(*ast.FuncDecl)
		if isFunc != sd.fn {
			return false
		}
		if isFunc && fd.Body != nil && (int(fd.Body.LbracePos) != int(sd.body) || int(fd.End) != int(sd.end)) {
			return false
		}
	}
	return true
}

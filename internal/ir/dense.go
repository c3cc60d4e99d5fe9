package ir

// Dense side tables: slices indexed by Value.ID or Block.ID, the compile
// path's replacement for pointer-keyed maps. A table is sized from
// Func.NumValues or Func.NumBlockIDs when a pass starts on a function and
// lives in a scratch struct owned by one worker, so its backing array is
// reused from function to function instead of being reallocated.
//
// One rule comes with indexing by ID: a constant is never a key. Cloning
// (inlining, CloneFunc) shares the source function's constant values with
// the destination, so a constant operand's ID may collide with, or lie
// beyond, the IDs of the function that uses it. Every other value placed in
// a function was numbered by that function (Verify checks it).

// Dense returns a zeroed table of length n, reusing buf's backing array when
// it is large enough.
func Dense[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// Grow extends a table to length n, keeping its entries and zeroing the new
// ones — for a pass that indexes by values it created after the table was
// sized.
func Grow[T any](t []T, n int) []T {
	old := len(t)
	if n <= old {
		return t
	}
	if n <= cap(t) {
		t = t[:n]
		clear(t[old:])
		return t
	}
	g := make([]T, n, n+n/4)
	copy(g, t)
	return g
}

// Wipe zeroes a table through its whole capacity. A worker calls it on its
// pointer tables when a unit is done: the memory stays for reuse, but it no
// longer pins the unit's IR — every value ever created, dead ones included,
// through a single stale entry — until the worker's next unit.
func Wipe[T any](t []T) { clear(t[:cap(t)]) }

// Resolve follows the replacement table from v to the value that finally
// stands for it (repl[x.ID] == nil ends the chain).
func Resolve(repl []*Value, v *Value) *Value {
	for v.Op != OpConst && v.ID < len(repl) && repl[v.ID] != nil {
		v = repl[v.ID]
	}
	return v
}

// replaceArgs resolves v's operands through repl, reporting whether any
// changed.
func replaceArgs(repl []*Value, v *Value) bool {
	changed := false
	for i, a := range v.Args {
		if r := Resolve(repl, a); r != a {
			v.Args[i] = r
			changed = true
		}
	}
	return changed
}

// ReplaceUses rewrites, in one scan of the function, every operand that has
// an entry in repl (indexed by Value.ID) to its replacement, following
// chains. It does not remove the replaced values' defining instructions.
// Reports whether anything changed.
func (f *Func) ReplaceUses(repl []*Value) bool {
	changed := false
	for _, b := range f.Blocks {
		for _, v := range b.Phis {
			if replaceArgs(repl, v) {
				changed = true
			}
		}
		for _, v := range b.Instrs {
			if replaceArgs(repl, v) {
				changed = true
			}
		}
		if b.Term != nil && replaceArgs(repl, b.Term) {
			changed = true
		}
	}
	return changed
}

// RemoveInstrs removes every instruction v of the block with dead[v.ID] set
// in one compaction, returning how many went. Phis and terminators are not
// handled here.
func (b *Block) RemoveInstrs(dead []bool) int {
	keep := b.Instrs[:0]
	for _, v := range b.Instrs {
		if v.ID < len(dead) && dead[v.ID] {
			v.Block = nil
			continue
		}
		keep = append(keep, v)
	}
	n := len(b.Instrs) - len(keep)
	if n > 0 {
		clear(b.Instrs[len(keep):])
		b.Instrs = keep
	}
	return n
}

// RemovePhis is RemoveInstrs for the block's phi list.
func (b *Block) RemovePhis(dead []bool) int {
	keep := b.Phis[:0]
	for _, v := range b.Phis {
		if v.ID < len(dead) && dead[v.ID] {
			v.Block = nil
			continue
		}
		keep = append(keep, v)
	}
	n := len(b.Phis) - len(keep)
	if n > 0 {
		clear(b.Phis[len(keep):])
		b.Phis = keep
	}
	return n
}

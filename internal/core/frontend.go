package core

// Segment 0: the frontend. A resident builder keeps, beside the segment
// entries of replay.go, each function's post-frontend IR — what lowering
// made of it, before prune and the first pass — as an ir.Snapshot encoding,
// together with the keys of the top-level declarations the compiler split
// the unit's source into. The next compile of the unit reuses a function
// when the bytes of its declaration equal those of the last compile and no
// top-level header that existed then has changed or disappeared (the
// compiler decides, internal/compiler/reuse.go). Its body is then neither
// lexed, parsed, checked nor lowered: the function reaches the driver
// empty, prune reads its calls from its entry, and the first segment fills
// it with the segment's recorded output when it replays and with its
// post-frontend IR from here when not. The key of a declaration is its
// bytes, not a position: a function that moved in the file is reused. A
// declaration that was added keeps reuse: an error-free body cannot have
// named what did not exist, and a clash is still a redeclaration the
// checker reports.
//
// The soundness sentinel samples these reuses as it samples replays: a
// sampled function is lowered normally and its encoding's key compared with
// the entry's (Stats.FrontAudited, FrontUnsound). Like the rest of the
// memo, segment 0 is in memory only and rebuilt by every compile from what
// it lowered or restored.

import (
	"slices"

	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
)

// DeclKey is what the memo keeps of one top-level declaration of a unit:
// the keys and lengths of its header — a function's bytes up to its body,
// another declaration's whole — and, for a function, of its body. A key is
// a 64-bit hash of the bytes under the seed of the unit's memo, as the
// segment entries' keys are of their encodings: two declarations with equal
// keys are, up to a collision no input can aim at, equal bytes.
type DeclKey struct {
	Head, Body       uint64
	HeadLen, BodyLen int32
	Func             bool
}

// Front is what the frontend did for the module a driver's next Run
// compiles: the keys of the unit's top-level declarations (none when it
// was not split), and how each function of the module was made.
type Front struct {
	// Seed is what Decls are keyed under: the unit's memo's (KeySeed).
	Seed  ir.KeySeed
	Decls []DeclKey
	// Funcs[i] is how the module's i-th function was made.
	Funcs []FrontFunc
}

// FrontFunc is how the frontend made one function.
type FrontFunc struct {
	// Decl is the function's ordinal among the function declarations of
	// Front.Decls, -1 when the function is not to be recorded.
	Decl int32
	// Old is the ordinal, among the function declarations of the unit's
	// last compile, of the one whose entry the function reuses or, when
	// Audit, is checked against; -1 for none. A function that reuses an
	// entry is empty.
	Old int32
	// Audit: the sentinel sampled the reuse, so the function was lowered
	// anew, and its key must equal the entry's.
	Audit bool
}

// KeySeed returns the seed the keys of the unit's memo are under, or a new
// one when it has none: the seed of the compile's keys, which the memo it
// records keeps.
func (s *UnitState) KeySeed() ir.KeySeed {
	if s == nil || s.memo.seed == 0 {
		return ir.NewKeySeed()
	}
	return s.memo.seed
}

// LastFrontend returns the declaration keys of the unit's last compile
// under Replay, which the frontend may reuse functions from; nil when the
// memo holds none.
func (s *UnitState) LastFrontend() []DeclKey {
	if s == nil {
		return nil
	}
	return s.memo.decls
}

// Restorable reports whether the i-th function declaration of
// LastFrontend has an entry to restore.
func (s *UnitState) Restorable(i int) bool {
	return s != nil && i < len(s.memo.fents) && s.memo.fents[i].n > 0
}

// Frontend hands the driver what the frontend did for the module its next
// Run compiles; that Run records the module's functions as segment 0 of the
// memo (under Replay). A Run without one records no segment 0.
func (d *Driver) Frontend(fr *Front) { d.front = fr }

// Sample rolls the soundness sentinel for one frontend reuse: true means
// lower the function anyway and check the reuse.
func (d *Driver) Sample() bool { return d.auditFire() }

// frontEntry is one function declaration's segment-0 entry, by ordinal
// among the unit's function declarations: the encoding of its
// post-frontend IR, buf[off:off+n] of its memo, keyed key (n == 0 is no
// entry), and what prune reads of it (passes.RefsOf): the callees of its
// calls, callees[calls : calls+ncalls], and whether it names a private
// global.
type frontEntry struct {
	key                   uint64
	off, n, calls, ncalls uint32
	private               bool
}

// recordFront starts the next memo with segment 0: an entry for each
// function of m — the module as the frontend left it, before prune — that
// the frontend made and described in d.front. A reused function's entry is
// copied; the function itself is still an empty shell, which takes its
// first segment's recorded output if it replays that segment and its
// post-frontend IR from here if not (enterFunc), and which prune reads
// through the entry. A lowered function is encoded, and an audited one
// checked against the entry it would have reused. recordFront notes each
// function's key, which the first segment takes instead of encoding the
// function, and returns the number of audited reuses and of unsound ones.
func (d *Driver) recordFront(st *UnitState, m *ir.Module) (audited, unsound int) {
	rp := &d.replay
	rp.buf, rp.seeds, rp.callees = rp.buf[:0], rp.seeds[:0], rp.callees[:0]
	fr := d.front
	rp.front = fr
	if fr == nil || len(fr.Decls) == 0 || len(fr.Funcs) != len(m.Funcs) {
		rp.front, rp.fents = nil, rp.fents[:0]
		return 0, 0
	}
	rp.fents = ir.Dense(rp.fents, len(fr.Funcs))
	for i, f := range m.Funcs {
		ff := fr.Funcs[i]
		if ff.Decl < 0 {
			continue
		}
		reused := ff.Old >= 0 && st.Restorable(int(ff.Old))
		e := frontEntry{off: uint32(len(rp.buf)), calls: uint32(len(rp.callees))}
		if reused && !ff.Audit {
			old := &st.memo.fents[ff.Old]
			rp.buf = append(rp.buf, st.memo.buf[old.off:old.off+old.n]...)
			rp.callees = append(rp.callees, st.memo.callees[old.calls:old.calls+old.ncalls]...)
			e.key, e.private = old.key, old.private
		} else {
			var ok bool
			if rp.buf, ok = rp.snap.AppendFunc(rp.buf, f); !ok {
				continue
			}
			e.key = rp.seed.Sum(rp.buf[e.off:])
			rp.callees, e.private = passes.RefsOf(m, f, rp.callees)
			if reused {
				audited++
				if e.key != st.memo.fents[ff.Old].key {
					unsound++
				}
			}
		}
		e.n = uint32(len(rp.buf)) - e.off
		e.ncalls = uint32(len(rp.callees)) - e.calls
		rp.fents[ff.Decl] = e
		sd := seed{f: f, key: e.key, nv: f.NumValues(), nb: f.NumBlockIDs()}
		if reused && !ff.Audit {
			sd.shell = ff.Decl + 1
		}
		rp.seeds = append(rp.seeds, sd)
	}
	return audited, unsound
}

// seed is a function's key as the frontend made it; shell is 1 + the
// function declaration whose entry holds the IR of a function the frontend
// left empty, 0 for one it lowered.
type seed struct {
	f      *ir.Func
	key    uint64
	nv, nb int
	shell  int32
}

// refs is passes.PruneDeadFuncsBy's view of the i-th function entering the
// compile: its entry's references when segment 0 recorded it.
func (d *Driver) refs(i int) ([]string, bool, bool) {
	rp := &d.replay
	if rp.front == nil || rp.front.Funcs[i].Decl < 0 {
		return nil, false, false
	}
	e := &rp.fents[rp.front.Funcs[i].Decl]
	if e.n == 0 {
		return nil, false, false
	}
	return rp.callees[e.calls : e.calls+e.ncalls], e.private, true
}

// fill gives a shell the frontend left (recordFront) the post-frontend IR of
// the function declaration numbered shell-1.
func (d *Driver) fill(f *ir.Func, shell int32) error {
	rp := &d.replay
	e := &rp.fents[shell-1]
	rp.snap.RestoreFunc(f, rp.buf[e.off:e.off+e.n])
	if d.opts.VerifyIR {
		return f.Verify()
	}
	return nil
}

// commitFront makes segment 0 of the compile's memo the unit's: its
// encodings are in the buffer commit copies, the declaration keys and the
// entries are copied here.
func (d *Driver) commitFront(m *memo) {
	rp := &d.replay
	if rp.front == nil {
		return
	}
	m.decls = slices.Clone(rp.front.Decls)
	m.fents = slices.Clone(rp.fents)
	m.callees = slices.Clone(rp.callees)
}

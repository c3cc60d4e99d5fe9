package core

// Segment replay: the paper's record is a hash and a bit, so it can skip
// only a pass that changed nothing. Most pass runs are passes that changed
// the IR last time, and a record of an active pass never authorizes a skip.
// A resident builder keeps, beside each unit's records, the output of every
// segment — a maximal run of function-local function slots — for every
// function, under the exact key of the segment's input (ir.Snapshot). A
// function that enters a segment with the IR it had last time takes the
// recorded output instead of running the segment's passes: a deterministic
// segment's output under its exact input is Fungi's named reuse. It is the
// Replay bit of a policy; Replay alone, with no dormancy records, is the
// full-IR caching comparator the paper measures its records against.
//
// The memo lives only in memory. It is never persisted, holds no pointer
// into IR, and goes with the state it rides on (a pipeline change, a
// quarantine, a cold restart); it is rebuilt at the end of every compile
// from the entries the compile used or recorded, so a function that left
// the unit leaves the memo. Module passes run on every compile, so what
// inline splices and globalopt constifies is always recomputed; the next
// segment's key sees it. A replayed slot keeps its dormancy records: they
// describe the same input, so a resident builder writes the state files a
// fresh builder would: replay changes no byte that leaves the process. A
// process that compiles each unit once cannot replay, so it runs Records
// alone and records no memo. The frontend is the memo's segment 0
// (frontend.go).

import (
	"slices"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
)

// segment is one run of function-local function slots, first..last.
type segment struct{ first, last int }

// memo is a unit's segment outputs. The entries of the function whose
// FuncState.memo is i+1 are ents[i : i+segments], one per segment. Segment
// 0, the frontend's (frontend.go), is the keys of the unit's declarations
// and, by function declaration, fents: a function's post-frontend IR. Every
// encoding is in buf. The last segment (code.go) is obj, the unit's last
// object.
type memo struct {
	buf     []byte
	ents    []memoEntry
	decls   []DeclKey
	fents   []frontEntry
	callees []string
	obj     *codegen.Object
}

// memoEntry is one (function, segment) output: its encoding is
// buf[off:off+n], recorded from a run on the input keyed in, producing the
// output keyed out. n == 0 is no entry. fp is the output's canonical
// fingerprint (fingerprint.Function) when hasFP: the first slot after the
// segment that hashed the function computed it, and a replay restores it
// with the IR, so no slot hashes a replayed function again.
type memoEntry struct {
	in, out, fp uint64
	off, n      uint32
	hasFP       bool
}

// memoEntrySize is a memoEntry's size in memory.
const memoEntrySize = 32

// entry returns fs's entry for segment seg, or nil.
func (mm *memo) entry(fs *FuncState, seg int) *memoEntry {
	if fs.memo == 0 || int(fs.memo)-1+seg >= len(mm.ents) {
		return nil
	}
	if e := &mm.ents[int(fs.memo)-1+seg]; e.n > 0 {
		return e
	}
	return nil
}

// MemoBytes is the size of the unit's segment memo: its encodings, their
// index, and segment 0's declaration keys, but not the object, which the
// builder keeps anyway. It is in memory only; a state file never holds it.
func (s *UnitState) MemoBytes() int {
	if s == nil {
		return 0
	}
	mm := &s.memo
	return len(mm.buf) + len(mm.ents)*memoEntrySize + len(mm.fents)*frontEntrySize +
		len(mm.decls)*declKeySize + len(mm.callees)*stringSize
}

// The sizes in memory of a frontEntry, a DeclKey and a string header.
const (
	frontEntrySize = 32
	declKeySize    = 32
	stringSize     = 16
)

// segmentsOf returns the pipeline's segments (nil for a policy without
// Replay) and each slot's segment (-1 for none).
func segmentsOf(infos []passes.Info, policy Policy) ([]segment, []int) {
	at := make([]int, len(infos))
	var segs []segment
	for i := range infos {
		at[i] = -1
		if policy&Replay == 0 || infos[i].Module || !infos[i].FunctionLocal {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1].last == i-1 {
			segs[n-1].last = i
		} else {
			segs = append(segs, segment{i, i})
		}
		at[i] = len(segs) - 1
	}
	return segs, at
}

// replay is one driver's segment-replay memory, reused from unit to unit:
// the snapshot codec's tables, the functions of the segment in progress,
// and the next memo while the compile builds it.
type replay struct {
	snap ir.Snapshot
	// entry lists the functions entering the pipeline; states their
	// FuncStates, in the same order (nil for one no segment saw).
	entry  []*ir.Func
	states []*FuncState
	fns    []segFunc
	buf    []byte
	ents   []memoEntry
	// outs holds, by entry position, the key of each function's output at
	// the last segment's end and its ID counters then. touched is set when
	// a slot outside the segments may have changed the IR since that end:
	// a module slot other than deadfunc that ran and reported a change (or
	// was audited), or a function slot that is not function-local. Until it
	// is, a function whose counters did not move still has that output as
	// its input, and the next segment, or the code (code.go), takes the key
	// from here instead of encoding the function again.
	outs    []segOut
	touched bool
	// awaits is the hash cache's (driver.go).
	awaits map[*ir.Func]*memoEntry
	// front is what the frontend did for the compile in progress, fents
	// its segment-0 entries by function declaration and callees their
	// references, and seeds the keys of the functions it made, in module
	// order; shells holds, by entry position, the seed's shell
	// (frontend.go).
	front   *Front
	fents   []frontEntry
	callees []string
	seeds   []seed
	shells  []int32
	// quarantined is set while the segment in progress holds a quarantined
	// pass; cursor is the entry position its function search has reached.
	quarantined bool
	cursor      int
	// prev and reuse are the last segment's match (code.go): the unit's
	// last object and, for each function of the module, the index in it of
	// the function whose code it takes, -1 for none; audits lists the
	// reuses the sentinel sampled.
	prev   *codegen.Object
	reuse  []int32
	audits []codeAudit
}

// segOut is one function's output key at a segment's end (ok: it has one).
type segOut struct {
	key    uint64
	nv, nb int
	ok     bool
}

// segFunc is one function's decision at a segment's first slot.
type segFunc struct {
	f   *ir.Func
	pos int // index in replay.entry, -1 for none
	// key is the input's key (keyed: it has one).
	key   uint64
	keyed bool
	// replayed: the segment's output was restored from old; audit: the
	// sentinel sampled the replay, so the segment runs and its output key
	// must equal old.out.
	replayed, audit bool
	old             memoEntry
}

// release drops the replay memory's references into the unit's IR and
// state.
func (rp *replay) release() {
	rp.snap.Release()
	clear(rp.awaits)
	ir.Wipe(rp.entry)
	ir.Wipe(rp.states)
	clear(rp.fns[:cap(rp.fns)])
	clear(rp.seeds[:cap(rp.seeds)])
	clear(rp.callees[:cap(rp.callees)])
	rp.entry, rp.states, rp.fns, rp.seeds, rp.callees = rp.entry[:0], rp.states[:0], rp.fns[:0], rp.seeds[:0], rp.callees[:0]
	rp.front = nil
}

// begin goes on with a compile's next memo, which recordFront started,
// over the functions entering the pipeline, with one entry per function and
// segment. A function the frontend keyed enters the first segment with that
// key; nothing else was keyed yet. A shell the frontend left is filled
// there (enterFunc), or here when a slot outside the segments comes first.
func (d *Driver) begin(funcs []*ir.Func) error {
	rp := &d.replay
	rp.entry = append(rp.entry[:0], funcs...)
	rp.states = ir.Dense(rp.states, len(funcs))
	rp.ents = ir.Dense(rp.ents, len(funcs)*len(d.segs))
	rp.outs = ir.Dense(rp.outs, len(funcs))
	rp.shells = ir.Dense(rp.shells, len(funcs))
	rp.touched = len(rp.seeds) == 0
	// Prune removed functions and kept the others' order.
	k := 0
	for pos, f := range funcs {
		for k < len(rp.seeds) && rp.seeds[k].f != f {
			k++
		}
		if k == len(rp.seeds) {
			break
		}
		sd := &rp.seeds[k]
		rp.outs[pos] = segOut{key: sd.key, nv: sd.nv, nb: sd.nb, ok: true}
		rp.shells[pos] = sd.shell
		if sd.shell > 0 && d.segs[0].first > 0 {
			if err := d.fill(f, sd.shell); err != nil {
				return err
			}
			rp.shells[pos] = 0
		}
	}
	return nil
}

// beginSegment starts segment seg at its first slot: a segment holding a
// quarantined pass replays nothing.
func (d *Driver) beginSegment(st *UnitState, seg int) {
	rp := &d.replay
	sg := d.segs[seg]
	rp.quarantined = false
	for slot := sg.first; slot <= sg.last; slot++ {
		rp.quarantined = rp.quarantined || st.Quarantined(d.infos[slot].Name)
	}
	rp.fns, rp.cursor = rp.fns[:0], 0
}

// enterFunc decides, at segment seg's first slot and right before the slot
// runs on f (so a run finds f's IR where the key walk left it, in cache),
// whether f replays the segment: its input key matches its entry and the
// sentinel does not sample the replay. It reports whether f replayed.
func (d *Driver) enterFunc(st *UnitState, seg int, f *ir.Func, cache *hashCache) (bool, error) {
	rp := &d.replay
	// The segment's functions are the entry list or a subsequence of it.
	for rp.cursor < len(rp.entry) && rp.entry[rp.cursor] != f {
		rp.cursor++
	}
	sf := segFunc{f: f, pos: -1}
	fs := st.funcState(f.Name, len(d.infos))
	if rp.cursor < len(rp.entry) {
		sf.pos = rp.cursor
		rp.states[sf.pos] = fs
	}
	// A shell the frontend left takes this segment's recorded output if it
	// replays and its post-frontend IR if not.
	var shell int32
	if sf.pos >= 0 {
		shell, rp.shells[sf.pos] = rp.shells[sf.pos], 0
	}
	var err error
	if o := &rp.outs[max(sf.pos, 0)]; sf.pos >= 0 && !rp.touched && o.ok &&
		o.nv == f.NumValues() && o.nb == f.NumBlockIDs() {
		sf.key, sf.keyed = o.key, true
	} else {
		if shell > 0 {
			if err = d.fill(f, shell); err != nil {
				return false, err
			}
			shell = 0
		}
		sf.key, sf.keyed = rp.snap.Key(f)
	}
	if e := st.memo.entry(fs, seg); sf.keyed && !rp.quarantined && e != nil && e.in == sf.key {
		sf.old = *e
		if d.auditFire() {
			sf.audit = true
		} else {
			rp.snap.RestoreFunc(f, st.memo.buf[e.off:e.off+e.n])
			cache.invalidate(f)
			if e.hasFP {
				cache.vals[f] = e.fp
			}
			sf.replayed = true
			if d.opts.VerifyIR {
				err = f.Verify()
			}
		}
	}
	if shell > 0 && !sf.replayed && err == nil {
		err = d.fill(f, shell)
	}
	rp.fns = append(rp.fns, sf)
	return sf.replayed, err
}

// leaveFunc records, at segment seg's last slot and right after the slot
// ran on it, the i-th function's output in the next memo: a replayed one's
// recorded bytes and fingerprint, a run's encoding and, once a slot has
// hashed the output, its fingerprint. An audited replay whose output key
// differs from its entry's is an unsound replay: it is counted on ss and
// recorded no more.
func (d *Driver) leaveFunc(st *UnitState, seg, i int, ss *SlotStats, cache *hashCache) {
	rp := &d.replay
	sf := &rp.fns[i]
	if sf.pos < 0 {
		return
	}
	rp.outs[sf.pos].ok = false
	if !sf.keyed {
		return
	}
	start := len(rp.buf)
	e := memoEntry{in: sf.key, out: sf.old.out, off: uint32(start)}
	if sf.replayed {
		rp.buf = append(rp.buf, st.memo.buf[sf.old.off:sf.old.off+sf.old.n]...)
		e.fp, e.hasFP = sf.old.fp, sf.old.hasFP
	} else {
		var ok bool
		if rp.buf, ok = rp.snap.AppendFunc(rp.buf, sf.f); !ok {
			return
		}
		e.out = ir.KeyOf(rp.buf[start:])
	}
	e.n = uint32(len(rp.buf) - start)
	rp.outs[sf.pos] = segOut{key: e.out, nv: sf.f.NumValues(), nb: sf.f.NumBlockIDs(), ok: true}
	if sf.audit {
		ss.Audited++
		if e.out != sf.old.out {
			ss.Unsound++
			rp.buf = rp.buf[:start]
			return
		}
	}
	if !e.hasFP {
		e.fp, e.hasFP = cache.vals[sf.f]
	}
	at := &rp.ents[sf.pos*len(d.segs)+seg]
	*at = e
	if !e.hasFP {
		cache.await(sf.f, at)
	}
}

// commit makes the compile's memo the unit's: one buffer and one index,
// copied out of the worker's memory, each entering function pointing at
// its entries, after the last segment has keyed m's final IR (code.go).
func (d *Driver) commit(st *UnitState, m *ir.Module) {
	rp := &d.replay
	d.commitCode(m, &st.memo)
	for _, fs := range st.Funcs {
		fs.memo = 0
	}
	for pos, fs := range rp.states {
		if fs != nil {
			fs.memo = int32(pos*len(d.segs) + 1)
		}
	}
	st.memo = memo{buf: slices.Clone(rp.buf), ents: slices.Clone(rp.ents)}
	d.commitFront(&st.memo)
}

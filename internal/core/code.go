package core

// The last segment: code. A function's generated code is a deterministic
// function of its final IR, ID-exact, and of nothing else in the unit but
// the indices the object gives its strings and its position among the
// object's functions, which the string and relocation tables carry. So the
// memo keeps the unit's last object — the one the builder keeps anyway, so
// no code is copied — and each function's state the key of the final IR its
// code there was generated from, and its place in the object
// (FuncState.codeKey, code). The key is the output key leaveFunc computed
// at the last segment's end when nothing outside the segments changed the
// IR since and the function's ID counters did not move; deadfunc only
// removes whole functions and leaves the survivors' keys valid. When
// something did (touched: globalopt reported a change, or a slot that is
// not function-local ran), the function is encoded again for its key: what
// globalopt constifies it constifies in every compile, so most of the
// functions it changed come out as they did last time. A function whose
// final-IR key equals the one its code was generated from takes that code
// (codegen.Scratch.CompileWithOptions), rebased to its new position and
// string table. Like the rest of the memo, it is in memory only.
//
// The soundness sentinel samples these reuses as it samples replays: a
// sampled function's code is generated anyway, and its digest
// (codegen.Object.Validate) compared with the reused function's
// (Stats.CodeAudited, CodeUnsound).

import (
	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
)

// codeAudit is one sampled code reuse: function fn of the new object would
// have taken function old of the unit's last one.
type codeAudit struct{ fn, old int32 }

// commitCode keys the final IR of each function of m, the module as the
// pipeline left it, and matches it with the function of old's object, the
// unit's last, whose code was generated from IR of the same key, for
// Codegen. It points the function's state at its key and place in m.
func (d *Driver) commitCode(m *ir.Module, old *memo) {
	rp := &d.replay
	rp.prev, rp.reuse = old.obj, ir.Dense(rp.reuse, len(m.Funcs))
	pos := 0
	for i, f := range m.Funcs {
		rp.reuse[i] = -1
		// The final functions are the entry list or a subsequence of it.
		for pos < len(rp.entry) && rp.entry[pos] != f {
			pos++
		}
		if pos == len(rp.entry) || rp.states[pos] == nil {
			continue
		}
		fs, o := rp.states[pos], &rp.outs[pos]
		key, ok := o.key, o.ok && !rp.touched && o.nv == f.NumValues() && o.nb == f.NumBlockIDs()
		if !ok {
			key, ok = rp.snap.Key(f)
		}
		// A state's place is stale when its function was not in the last
		// object; the object's name says so.
		j := int(fs.code) - 1
		if ok && fs.code > 0 && fs.codeKey == key && old.obj != nil && j < len(old.obj.Funcs) && old.obj.Funcs[j].Name == f.Name {
			rp.reuse[i] = int32(j)
		}
		fs.code, fs.codeKey = 0, key
		if ok {
			fs.code = int32(i + 1)
		}
	}
}

// Codegen generates the code of m, the module the driver's last Run
// compiled, in cg, and makes the object the last segment of st, the state
// that Run returned. Under Replay a function whose final IR has the key its
// code in the unit's last object was generated from takes that code; the
// sentinel samples each such reuse. Without Replay every function's code is
// generated and nothing is kept.
func (d *Driver) Codegen(cg *codegen.Scratch, m *ir.Module, st *UnitState, stats *Stats) (*codegen.Object, error) {
	rp := &d.replay
	prev, reuse := rp.prev, rp.reuse
	rp.prev, rp.audits = nil, rp.audits[:0]
	if prev == nil || len(reuse) != len(m.Funcs) {
		reuse = nil
	}
	reused := 0
	for i, j := range reuse {
		switch {
		case j < 0:
		case d.auditFire():
			rp.audits = append(rp.audits, codeAudit{int32(i), j})
			reuse[i] = -1
		default:
			reused++
		}
	}
	obj, err := cg.CompileWithOptions(m, codegen.Options{}, prev, reuse)
	if err != nil {
		return nil, err
	}
	for _, a := range rp.audits {
		stats.CodeAudited++
		if obj.Digests[a.fn] != prev.Digests[a.old] {
			stats.CodeUnsound++
		}
	}
	if len(d.segs) > 0 && st != nil {
		st.memo.obj = obj
	}
	if pc := d.opts.Obs.PassCtrs(); pc != nil {
		pc.CodeCompiled.Add(int64(len(m.Funcs) - reused))
		pc.CodeReused.Add(int64(reused))
		pc.Audited.Add(int64(stats.CodeAudited))
		pc.Unsound.Add(int64(stats.CodeUnsound))
	}
	return obj, nil
}

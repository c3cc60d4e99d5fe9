package core

// Full-IR caching: the rustc/Zapcc-style comparator the paper positions its
// dormancy records against. Instead of a hash and a bit per (function,
// pass), the FullCache policy keeps every function's whole post-pipeline
// body. Before the first slot it restores the recorded body of each function
// whose key matches; a restored function then takes no function slot (each
// counts it as Replayed), and module slots run as under every policy.
//
// Key construction is where the honesty lives. An optimized body is a pure
// function of:
//
//   - the function's own pre-pipeline IR,
//   - the pre-pipeline IR of every function transitively reachable through
//     its calls (the inliner can splice any of them in),
//   - every function that touches any global the closure touches
//     (globalopt's constification decisions are module-wide facts), and
//   - the metadata of those globals.
//
// So the key hashes all of the above. Anything outside the key cannot
// change the optimized body: the module passes (deadfunc, and globalopt's
// removal of *other* globals) do not edit this function's body. The classic
// trap — an `if false { _g = 1; }` store in another function flipping
// constification — is what the touchers are for
// (TestFullCacheGlobalUsageTrap).
//
// The bodies ride the unit's in-memory memo (replay.go), one whole-pipeline
// entry per function, in ir.Snapshot's encoding: a restore keeps the
// recorded value and block IDs, so a warm compile's module prints as a
// stateless compile's does. Like the segment memo, it is never persisted.

import (
	"fmt"
	"sort"

	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
)

// restoreBodies keys every function entering the pipeline and restores the
// recorded body of each whose key matches its memo entry.
func (d *Driver) restoreBodies(m *ir.Module, st *UnitState, cache *hashCache, stats *Stats) error {
	rp := &d.replay
	rp.begin(m.Funcs, 1)
	keys := closureKeys(m, d.opts.Pipeline, cache.get)
	for i, f := range m.Funcs {
		fs := st.funcState(f.Name, len(d.infos))
		rp.states[i] = fs
		sf := segFunc{f: f, pos: i, key: keys[f.Name], keyed: true}
		if e := st.memo.entry(fs, 0); e != nil && e.in == sf.key {
			sf.old, sf.replayed = *e, true
			rp.snap.RestoreFunc(f, st.memo.buf[e.off:e.off+e.n])
			cache.invalidate(f)
			rp.restored[f] = true
			stats.Restored++
			if d.opts.VerifyIR {
				if err := f.Verify(); err != nil {
					return fmt.Errorf("core: restored body of %s.%s: %w", m.Unit, f.Name, err)
				}
			}
		}
		rp.fns = append(rp.fns, sf)
	}
	return nil
}

// unrestored returns funcs without the functions restoreBodies restored,
// in place.
func (rp *replay) unrestored(funcs []*ir.Func) []*ir.Func {
	out := funcs[:0]
	for _, f := range funcs {
		if !rp.restored[f] {
			out = append(out, f)
		}
	}
	return out
}

// recordBodies makes the post-pipeline body of every function the pipeline
// kept the unit's memo entry, under the key restoreBodies gave it: a
// restored one's recorded bytes, a compiled one's encoding.
func (d *Driver) recordBodies(m *ir.Module, st *UnitState) {
	rp := &d.replay
	i := 0
	for _, f := range m.Funcs {
		// The pipeline only deletes functions: what is left is a
		// subsequence of the entry list.
		for i < len(rp.fns) && rp.fns[i].f != f {
			i++
		}
		if i == len(rp.fns) {
			break
		}
		d.leaveFunc(st, 0, i, nil)
	}
	d.commit(st)
}

// closureKeys derives every function's cache key from the pre-pipeline
// module, hashing functions with hash.
func closureKeys(m *ir.Module, pipeline []string, hash func(*ir.Func) uint64) map[string]uint64 {
	// Per-function facts.
	preHash := make(map[string]uint64, len(m.Funcs))
	callees := make(map[string][]string, len(m.Funcs))
	globalsUsed := make(map[string][]string, len(m.Funcs))
	for _, f := range m.Funcs {
		preHash[f.Name] = hash(f)
		calleeSet := map[string]bool{}
		globalSet := map[string]bool{}
		f.ForEachValue(func(v *ir.Value) {
			switch v.Op {
			case ir.OpCall:
				calleeSet[v.Sym] = true
			case ir.OpGlobalAddr:
				globalSet[v.Sym] = true
			}
		})
		callees[f.Name] = sortedKeys(calleeSet)
		globalsUsed[f.Name] = sortedKeys(globalSet)
	}

	globalMeta := make(map[string]*ir.Global, len(m.Globals))
	for _, g := range m.Globals {
		globalMeta[g.Name] = g
	}

	keys := make(map[string]uint64, len(m.Funcs))
	for _, f := range m.Funcs {
		// Call closure within the module.
		closure := map[string]bool{f.Name: true}
		stack := []string{f.Name}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, callee := range callees[cur] {
				if _, defined := preHash[callee]; defined && !closure[callee] {
					closure[callee] = true
					stack = append(stack, callee)
				}
			}
		}
		// Globals the closure touches, and every function touching them.
		relevantGlobals := map[string]bool{}
		for fn := range closure {
			for _, g := range globalsUsed[fn] {
				relevantGlobals[g] = true
			}
		}
		touchers := map[string]bool{}
		for _, other := range m.Funcs {
			for _, g := range globalsUsed[other.Name] {
				if relevantGlobals[g] {
					touchers[other.Name] = true
				}
			}
		}

		h := fingerprint.New()
		h.Uint64(fingerprint.Strings(pipeline))
		h.String(f.Name)
		for _, fn := range sortedKeys(closure) {
			h.String(fn)
			h.Uint64(preHash[fn])
		}
		for _, fn := range sortedKeys(touchers) {
			h.String(fn)
			h.Uint64(preHash[fn])
		}
		for _, g := range sortedKeys(relevantGlobals) {
			h.String(g)
			if gm := globalMeta[g]; gm != nil {
				h.Int(gm.Words)
				h.Int(gm.Init)
				if gm.Private {
					h.Byte(1)
				} else {
					h.Byte(0)
				}
			}
		}
		keys[f.Name] = h.Sum()
	}
	return keys
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

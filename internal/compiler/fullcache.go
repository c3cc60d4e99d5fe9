package compiler

// FullCache is the rustc/Zapcc-style comparator the paper positions its
// lightweight dormancy records against: instead of remembering one hash and
// one bit per (function, pass), it caches entire optimized function bodies
// (as bitcode) and replays them on a key match, skipping the whole function
// pipeline for that function.
//
// Key construction is where the honesty lives. An optimized body is a pure
// function of:
//
//   - the function's own pre-pipeline IR,
//   - the pre-pipeline IR of every function transitively reachable through
//     its calls (the inliner can splice any of them in),
//   - every function that touches any private global the closure touches
//     (globalopt's constification decisions are module-wide facts), and
//   - the metadata of those globals.
//
// So the key hashes all of the above. Anything outside the key cannot
// change the optimized body: the remaining module passes (deadfunc, and
// globalopt's removal of *other* globals) do not edit this function's
// body. The tests exercise the classic trap — an `if false { _g = 1; }`
// store in another function flipping constification — to demonstrate the
// key catches it.
//
// A replayed body is decoded from bitcode, which numbers its values afresh.
// So a warm compile's UnitResult.Module differs from a stateless compile's in
// value IDs when printed, while the object code generation makes of it is
// byte-identical: compare a replayed body by its object, not its text.

import (
	"bytes"
	"fmt"
	"sort"

	"statefulcc/internal/bitcode"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
)

// FullCache holds optimized function bodies keyed by input fingerprints.
type FullCache struct {
	pipeline []string
	entries  map[string]*fcEntry // by function name
}

type fcEntry struct {
	key  uint64
	blob []byte
}

// NewFullCache creates an empty cache for the given pipeline.
func NewFullCache(pipeline []string) *FullCache {
	return &FullCache{pipeline: pipeline, entries: make(map[string]*fcEntry)}
}

// SizeBytes reports the cache footprint (keys + bitcode blobs).
func (fc *FullCache) SizeBytes() int {
	n := 0
	for name, e := range fc.entries {
		n += len(name) + 8 + len(e.blob)
	}
	return n
}

// Entries reports the number of cached functions.
func (fc *FullCache) Entries() int { return len(fc.entries) }

// Optimize runs the pipeline over m, replaying cached bodies for functions
// whose keys match and pinning them so function passes skip them entirely.
func (fc *FullCache) Optimize(m *ir.Module) (hits, misses int, err error) {
	keys := fc.computeKeys(m)

	pinned := make(map[string]bool)
	for i, f := range m.Funcs {
		e, ok := fc.entries[f.Name]
		if !ok || e.key != keys[f.Name] {
			misses++
			continue
		}
		cached, derr := bitcode.DecodeFunc(bytes.NewReader(e.blob))
		if derr != nil {
			// Corrupt entry: drop it and recompile.
			delete(fc.entries, f.Name)
			misses++
			continue
		}
		cached.Module = m
		m.Funcs[i] = cached
		pinned[f.Name] = true
		hits++
	}

	if err := runPipelineSkipping(m, fc.pipeline, pinned); err != nil {
		return hits, misses, err
	}

	// Store fresh results. Functions deleted by the pipeline (deadfunc) are
	// simply not stored and recompile each build.
	for _, f := range m.Funcs {
		if pinned[f.Name] {
			continue
		}
		key, ok := keys[f.Name]
		if !ok {
			continue
		}
		var buf bytes.Buffer
		if err := bitcode.EncodeFunc(&buf, f); err != nil {
			return hits, misses, fmt.Errorf("fullcache: %w", err)
		}
		fc.entries[f.Name] = &fcEntry{key: key, blob: buf.Bytes()}
	}
	return hits, misses, nil
}

// computeKeys derives every function's cache key from the pre-pipeline
// module.
func (fc *FullCache) computeKeys(m *ir.Module) map[string]uint64 {
	// Per-function facts.
	preHash := make(map[string]uint64, len(m.Funcs))
	callees := make(map[string][]string, len(m.Funcs))
	globalsUsed := make(map[string][]string, len(m.Funcs))
	for _, f := range m.Funcs {
		preHash[f.Name] = fingerprint.Function(f)
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
		h.Uint64(fingerprint.Strings(fc.pipeline))
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

// runPipelineSkipping executes the pipeline, skipping function passes for
// pinned (cache-replayed) functions; module passes always run.
func runPipelineSkipping(m *ir.Module, pipeline []string, pinned map[string]bool) error {
	scratch := &passes.Scratch{}
	for _, name := range pipeline {
		info, ok := passes.Lookup(name)
		if !ok {
			return fmt.Errorf("fullcache: unknown pass %q", name)
		}
		inst := info.New()
		passes.UseScratch(inst, scratch)
		if info.Module {
			inst.(passes.ModulePass).RunModule(m)
			continue
		}
		p := inst.(passes.FuncPass)
		for _, f := range m.Funcs {
			if pinned[f.Name] {
				continue
			}
			p.Run(f)
		}
	}
	return nil
}

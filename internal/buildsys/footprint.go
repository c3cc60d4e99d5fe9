package buildsys

// Dependency-footprint tracing and the per-build cross-check — the
// always-correct mode (docs/ROBUSTNESS.md). With Options.Footprint on,
// every compile runs with a footprint.Trace attached: the unit's source
// and the pipeline configuration are recorded as invalidating entries, and
// the compiled object's unresolved relocations become link-scope entries;
// state-file I/O is the builder's bookkeeping and is not recorded. The finished record rides on the unit's
// persisted state and is retained in memory.
//
// On the next build the partition loop derives the *true* invalidation
// verdict from the retained footprint and compares it with the declared
// content-hash decision:
//
//   - declared says cached, footprint says changed → missed invalidation
//     (footprint.missed, Report.FootprintMissed, a warning) — a build that
//     would have shipped a stale object;
//   - declared says recompile, footprint says unchanged → redundant
//     recompile (footprint.redundant, Report.FootprintRedundant) — wasted
//     work, not wrongness.
//
// EnforceFootprint turns the verdict into the decision: missed units are
// forced to recompile and redundant units are served from cache, so the
// build is correct even when the declared channel lies (the differential
// battery proves outputs stay byte-identical to stateless builds).

import (
	"statefulcc/internal/codegen"
	"statefulcc/internal/footprint"
)

// ContentHash is the declared content hash of a unit's source — the
// file-level identity the object cache is keyed by. Exported so offline
// consumers (`minibuild deps`) can recompute the honest declared hash.
func ContentHash(src []byte) uint64 { return contentHash(src) }

// footprintOn reports whether compiles trace footprints and the partition
// loop cross-checks them.
func (b *Builder) footprintOn() bool {
	return b.opts.Footprint || b.opts.EnforceFootprint
}

// declaredHash is the declared-channel content hash for a unit: the honest
// contentHash unless a ContentHashHook (a lying invalidator under test)
// overrides it. The partition loop calls it once per unit per build.
func (b *Builder) declaredHash(unit string, src []byte, honest uint64) uint64 {
	if b.opts.ContentHashHook != nil {
		return b.opts.ContentHashHook(unit, src, honest)
	}
	return honest
}

// newTrace starts a unit's footprint trace with its invalidating entries
// pre-recorded. Returns nil when tracing is off.
func (b *Builder) newTrace(unit string, src []byte) *footprint.Trace {
	if !b.footprintOn() {
		return nil
	}
	tr := footprint.NewTrace(unit)
	tr.AddSource(unit, src)
	tr.AddPipeline(b.opts.Pipeline)
	return tr
}

// RecordObjectDeps adds the object's link-scope entries to the trace: each
// relocation whose symbol the unit does not define itself is a cross-unit
// read the linker will resolve. Call entries carry the call arity (the
// property the linker checks against the callee); global entries carry the
// symbol only. Exported so single-unit drivers (minicc -footprint) record
// the same link-scope entries the build system does.
func RecordObjectDeps(tr *footprint.Trace, obj *codegen.Object) {
	own := make(map[string]bool, len(obj.Funcs))
	for _, f := range obj.Funcs {
		own[f.Name] = true
	}
	for _, r := range obj.Relocs {
		if own[r.Symbol] {
			continue
		}
		arity := uint64(0)
		if r.Func >= 0 && r.Func < len(obj.Funcs) {
			code := obj.Funcs[r.Func].Code
			if r.Pc >= 0 && r.Pc < len(code) {
				arity = uint64(code[r.Pc].C)
			}
		}
		tr.Add(footprint.KindCall, r.Symbol, arity)
	}
	ownGlobals := make(map[string]bool, len(obj.Globals))
	for _, g := range obj.Globals {
		ownGlobals[g.Name] = true
	}
	for _, r := range obj.GlobalRelocs {
		if !ownGlobals[r.Symbol] {
			tr.Add(footprint.KindGlobal, r.Symbol, 0)
		}
	}
}

// crossCheck compares one unit's declared cache decision against the
// verdict derived from its retained footprint, updating counters, the
// report, and — under EnforceFootprint — the decision itself. Returns the
// (possibly corrected) cached decision. Only units with both a cached
// object and a retained footprint are checkable; e may be nil.
func (b *Builder) crossCheck(rep *Report, e *unitEntry, name string, src []byte,
	pipeHash uint64, cached bool) bool {
	if e == nil || e.obj == nil || e.fp == nil {
		return cached
	}
	b.ctr.footprintChecked.Inc()
	changed := e.fp.Changed(src, pipeHash)
	switch {
	case cached && len(changed) > 0:
		b.ctr.footprintMissed.Inc()
		rep.FootprintMissed = append(rep.FootprintMissed, name)
		b.warnf("footprint: unit %s: missed invalidation: declared hash says cached but %s changed (stale object%s)",
			name, changed[0], enforceNote(b.opts.EnforceFootprint))
		if b.opts.EnforceFootprint {
			cached = false
		}
	case !cached && len(changed) == 0:
		b.ctr.footprintRedundant.Inc()
		rep.FootprintRedundant = append(rep.FootprintRedundant, name)
		if b.opts.EnforceFootprint {
			// The traced read set is byte-identical to the current inputs, so
			// the cached object is proven valid; serve it and adopt the new
			// declared hash so the declared channel re-converges.
			cached = true
		}
	}
	return cached
}

func enforceNote(enforced bool) string {
	if enforced {
		return "; recompiled by enforcement"
	}
	return " would have shipped"
}

// Footprints snapshots the footprints retained for the builder's units
// (the per-unit ground truth of the most recent compile of each). Units
// compiled before tracing was enabled, or never compiled by this builder,
// are absent.
func (b *Builder) Footprints() map[string]*footprint.Record {
	out := make(map[string]*footprint.Record, len(b.units))
	for name, e := range b.units {
		if e.fp != nil {
			out[name] = e.fp
		}
	}
	return out
}

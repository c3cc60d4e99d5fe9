package buildsys

// The parallel compile phase. Each worker slot owns one compiler (they are
// not safe for concurrent use), and changed units are dispatched across
// the slots from a shared queue (work stealing), which balances cold
// builds well. A unit's state — its dormancy records, segment memo or full
// cache — is per unit and travels with the job, so it does not matter
// which worker compiles a unit.
//
// Results land in a slice indexed by job order; nothing about the
// build's observable behaviour depends on scheduling. On error the pool
// stops issuing new jobs, drains, and reports the failure of the
// lowest-indexed unit so error messages are deterministic too.
//
// Adversity handling (docs/ROBUSTNESS.md):
//
//   - a pass panic is confined to its unit by a recover() boundary: the
//     unit's state is quarantined and the unit retried once on a stateless
//     fallback compiler, so one berserk pass never kills the build or the
//     serve daemon;
//
//   - context cancellation stops the pool cooperatively: in-flight units
//     abort between pass slots and their state is not persisted, queued
//     units never start, and completed units keep their fully-written
//     state files.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

// unitResult is one job's result in the shape the build keeps it: what the
// unit's entry holds after the build, the unit's record row, and what the
// report and the counters take from it. The path that settles the unit —
// remote fetch, quarantine, panic or compile — fills it; the commit assigns
// it in unit order. A cancelled job leaves the zero result, a hole.
type unitResult struct {
	err error
	obj *codegen.Object
	// state is the dormancy state the entry keeps (nil: none) and stateBytes
	// its encoded size, measured by the one encoding its save made.
	state      *core.UnitState
	stateBytes int
	// fp is the unit's traced read footprint (footprint mode only, and
	// never for a remote object): the ground truth the next build's
	// cross-check runs against.
	fp  *footprint.Record
	rec history.UnitRecord
	// stats are the pass driver's statistics (rec.Passes is their table).
	stats *core.Stats
	// ev is the unit's timeline event, its stage times included; runJob
	// stamps the unit, worker and times.
	ev obs.UnitEvent
}

// compileJob carries everything a worker needs, precomputed so workers
// never touch the builder's maps concurrently.
type compileJob struct {
	name string
	src  []byte
	// honest is contentHash(src) and hash the declared hash the partition
	// decided on; the commit stamps both on the unit's entry, and the
	// footprint record carries hash.
	honest, hash uint64
	// prev is the unit's in-memory state, if any, with the segment outputs
	// the driver replays (a state loaded from disk has none).
	prev *core.UnitState
	// probeDisk asks the worker to try loading state from StateDir first
	// (a records-keeping builder's first compile of the unit in this process).
	probeDisk bool
}

// runCompiles compiles the partition's jobs (in unit-name order) and
// returns their results aligned with them. Every job is ready when the pool
// starts: file-level units have no inter-unit dependencies. Compile failures
// return an error; cancellation does not — it leaves holes (zero results)
// for the caller to detect.
func (b *Builder) runCompiles(ctx context.Context, jobs []compileJob) ([]unitResult, error) {
	records := b.keepsRecords()
	for i := range jobs {
		j := &jobs[i]
		if e, ok := b.units[j.name]; ok {
			j.prev = e.state
			j.probeDisk = records && !e.diskProbed && e.state == nil
		} else {
			j.probeDisk = records
		}
	}

	results := make([]unitResult, len(jobs))
	nworkers := min(len(b.workers), len(jobs))
	if nworkers == 0 {
		return results, nil
	}

	b.runStealing(ctx, jobs, results, nworkers)

	for i := range results {
		err := results[i].err
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancellation is the caller's ctx speaking, not a unit failing;
			// report it as a hole, not an error.
			results[i] = unitResult{}
			continue
		}
		return nil, fmt.Errorf("buildsys: %w", err)
	}
	return results, nil
}

// runJob runs job i on worker w and stamps its timeline event. Each slot of
// results is written by exactly one worker, so no synchronization is needed.
func (b *Builder) runJob(ctx context.Context, w, i int, jobs []compileJob, results []unitResult) {
	startNS := b.tlNow()
	r := b.compileOne(ctx, w, jobs[i])
	r.ev.Unit, r.ev.Worker, r.ev.StartNS, r.ev.EndNS = jobs[i].name, w, startNS, b.tlNow()
	results[i] = r
}

// runStealing drains jobs through a shared atomic cursor on worker slots
// w < nworkers: slot 0 on the calling goroutine, so the build's first unit
// starts without waiting for a goroutine to be scheduled, and the others on
// goroutines of their own. It returns when every slot has.
func (b *Builder) runStealing(ctx context.Context, jobs []compileJob, results []unitResult, nworkers int) {
	var next int64
	var failed atomic.Bool
	work := func(w int) {
		for {
			i := int(atomic.AddInt64(&next, 1) - 1)
			if i >= len(jobs) || failed.Load() || ctx.Err() != nil {
				return
			}
			b.runJob(ctx, w, i, jobs, results)
			if results[i].err != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}

// safeCompile runs one compile under a recover() boundary. A pass panic —
// a bug in the pass, not in the unit's source — must not take down the
// build or the serve daemon; it surfaces as (panicked, msg) for the caller
// to isolate.
func safeCompile(ctx context.Context, c *compiler.Compiler, name string, src []byte, st *core.UnitState) (res *compiler.UnitResult, err error, panicked bool, msg string) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, nil
			panicked = true
			msg = fmt.Sprint(r)
		}
	}()
	res, err = c.CompileUnitContext(ctx, name, src, st)
	return
}

// compileOne runs one unit through worker w's compiler, loading and saving
// persistent dormancy state around it when a state directory is set; its
// event (runJob) times it, state I/O included. The shared counters it
// touches are atomic. The unit's state pointer (shared with b.units) is only
// ever touched by the one worker compiling the unit.
//
// The unit's IR does not leave with the result: the build system keeps the
// object, the state and the statistics of a compile, never its module, so
// none of the 208 post-pipeline modules of a cold build outlives its unit.
// The worker's compilers release their IR arenas here, so the next unit
// reuses the memory and an idle worker pins none of it.
func (b *Builder) compileOne(ctx context.Context, w int, j compileJob) unitResult {
	c := b.workers[w]
	defer func() {
		c.Release()
		if fc := b.fallbacks[w]; fc != nil {
			fc.Release()
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return unitResult{err: fmt.Errorf("%s: build cancelled: %w", j.name, cerr)}
	}

	// Footprint mode attaches a per-unit trace: invalidating entries are
	// pre-recorded. The unit's state load and save stay out of it (see
	// loadUnitState). The trace is private to this job — concurrent units
	// never share one, so shared reads are counted once per reading unit,
	// not globally.
	tr := b.newTrace(j.name, j.src)

	prev := j.prev
	if prev == nil && j.probeDisk {
		prev = b.loadUnitState(j.name)
	}

	// A whole-unit quarantine (a pass panicked on this unit) compiles
	// through the stateless fallback until enough clean builds lift it.
	if b.keepsRecords() && prev != nil && prev.Quarantine.Whole() {
		return b.compileQuarantined(ctx, w, tr, j, prev)
	}

	// Shared cache: try a verified remote fetch before compiling.
	var action cas.Key // hashed once: the fetch and the publish share it
	if b.cas != nil {
		action = b.actionKey(casObjectDomain, j.name, j.src)
		if remote, ok := b.casFetch(j, action, prev); ok {
			return remote
		}
	}

	res, err, panicked, msg := safeCompile(ctx, c, j.name, j.src, prev)
	if panicked {
		return b.compileAfterPanic(ctx, w, tr, j, msg)
	}
	if err != nil {
		return unitResult{err: err}
	}
	fp := b.finishTrace(tr, j, res)
	var enc []byte
	if b.keepsRecords() {
		b.settleQuarantine(res)
		res.State.Footprint = fp
		enc = b.saveUnitState(j.name, res.State)
	}
	if b.cas != nil {
		b.casPublish(j, action, res, enc)
	}
	return compiled(res, obs.OutcomeCompile, res.State, len(enc), fp)
}

// compiled is the result of a unit compiled to res by the path outcome names,
// keeping state st of encoded size stateBytes.
func compiled(res *compiler.UnitResult, outcome string, st *core.UnitState, stateBytes int, fp *footprint.Record) unitResult {
	r := unitResult{
		obj: res.Object, state: st, stateBytes: stateBytes, fp: fp,
		rec:   history.UnitRecord{CompileNS: res.TotalNS, Panicked: outcome == obs.OutcomePanic},
		stats: res.Stats,
		ev:    obs.UnitEvent{Outcome: outcome, FrontendNS: res.FrontendNS, PassesNS: res.PassesNS, CodegenNS: res.CodegenNS},
	}
	r.rec.Passes = res.Stats.Slots
	if st != nil && st.Quarantine != nil {
		r.rec.Quarantine = st.Quarantine.Reason
	}
	return r
}

// finishTrace folds the compiled object's link-scope dependencies into the
// trace and snapshots the canonical footprint, stamped with the declared
// hash the cache decision used. Nil-safe (returns nil when tracing is off
// or the compile produced nothing).
func (b *Builder) finishTrace(tr *footprint.Trace, j compileJob, res *compiler.UnitResult) *footprint.Record {
	if tr == nil || res == nil {
		return nil
	}
	if res.Object != nil {
		RecordObjectDeps(tr, res.Object)
	}
	return tr.Finish(j.hash)
}

// compileQuarantined compiles a whole-unit-quarantined unit on the
// stateless fallback and advances (or resets) the quarantine's clean-build
// count. At core.QuarantineCleanTarget the quarantine lifts and the unit
// restarts cold — the pre-panic records were discarded at engagement, so
// trust rebuilds from fresh observations.
func (b *Builder) compileQuarantined(ctx context.Context, w int, tr *footprint.Trace, j compileJob, marker *core.UnitState) unitResult {
	fc, ferr := b.fallback(w)
	if ferr != nil {
		return unitResult{err: ferr}
	}
	res, err, panicked, msg := safeCompile(ctx, fc, j.name, j.src, nil)
	if panicked {
		// Still panicking even stateless: the unit cannot compile at all.
		// That is a unit diagnostic (like a compile error), and the probation
		// window restarts.
		b.ctr.panics.Inc()
		marker.Quarantine.Clean = 0
		b.saveUnitState(j.name, marker)
		return unitResult{err: fmt.Errorf("%s: pass panicked (unit quarantined, stateless retry): %s", j.name, msg)}
	}
	if err != nil {
		return unitResult{err: err}
	}
	fp := b.finishTrace(tr, j, res)
	q := marker.Quarantine
	q.Clean++
	if q.Clean >= core.QuarantineCleanTarget {
		b.ctr.quarantineLifted.Inc()
		b.removeUnitState(j.name)
		return compiled(res, obs.OutcomeQuarantine, nil, 0, fp)
	}
	marker.Footprint = fp
	enc := b.saveUnitState(j.name, marker)
	return compiled(res, obs.OutcomeQuarantine, marker, len(enc), fp)
}

// compileAfterPanic isolates a pass panic: count it, quarantine the unit's
// state (its records may have been half-updated by the panicking pass),
// and retry once on the stateless fallback so the unit — whose source is
// not at fault — still compiles.
func (b *Builder) compileAfterPanic(ctx context.Context, w int, tr *footprint.Trace, j compileJob, msg string) unitResult {
	b.ctr.panics.Inc()
	b.warnf("panic: unit %s: pass panicked: %s (unit quarantined, compiled stateless)", j.name, msg)

	var marker *core.UnitState
	var enc []byte
	if b.keepsRecords() {
		marker = core.NewUnitState(j.name, b.opts.Pipeline)
		marker.Quarantine = &core.Quarantine{Reason: core.QuarantinePanic}
		b.ctr.quarantineEngaged.Inc()
		enc = b.saveUnitState(j.name, marker)
	}

	fc, ferr := b.fallback(w)
	if ferr != nil {
		return unitResult{err: ferr}
	}
	res, err, panicked2, msg2 := safeCompile(ctx, fc, j.name, j.src, nil)
	if panicked2 {
		b.ctr.panics.Inc()
		return unitResult{err: fmt.Errorf("%s: pass panicked (persisted through stateless retry): %s", j.name, msg2)}
	}
	if err != nil {
		return unitResult{err: err}
	}
	return compiled(res, obs.OutcomePanic, marker, len(enc), b.finishTrace(tr, j, res))
}

// settleQuarantine advances a compiled unit's per-pass quarantine: a build
// with fresh unsound-skip evidence (the driver already engaged/extended
// the quarantine and reset its clean count) counts an engagement; a clean
// build bumps the clean count and lifts the quarantine at target. Per-pass
// quarantined passes kept running (and re-recording) while quarantined, so
// a lift resumes skipping on warm records.
func (b *Builder) settleQuarantine(res *compiler.UnitResult) {
	st := res.State
	if st == nil || st.Quarantine == nil {
		return
	}
	if _, unsound := res.Stats.SentinelTotals(); unsound > 0 {
		b.ctr.quarantineEngaged.Inc()
		return
	}
	st.Quarantine.Clean++
	if st.Quarantine.Clean >= core.QuarantineCleanTarget {
		st.Quarantine = nil
		b.ctr.quarantineLifted.Inc()
	}
}

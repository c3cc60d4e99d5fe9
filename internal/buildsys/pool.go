package buildsys

// The parallel compile phase. Each worker slot owns one compiler (they are
// not safe for concurrent use), and changed units are dispatched across
// the slots:
//
//   - record-keeping modes pull from a shared queue (work stealing), which
//     balances cold builds well — dormancy state is per unit and travels
//     with the job, so it does not matter which worker compiles a unit;
//
//   - fullcache mode shards units to workers by unit-name hash, so a unit
//     recompiles on the worker whose in-memory function cache saw it last
//     and cross-build cache hits survive parallelism.
//
// Outcomes land in a results slice indexed by job order; nothing about the
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
	"statefulcc/internal/obs"
)

// outcome is one unit's compile result.
type outcome struct {
	res *compiler.UnitResult
	err error
	// panicked means the unit's normal compile panicked and res (if set)
	// came from the stateless fallback.
	panicked bool
	// qstate, when set, is the quarantine-marker state to retain for the
	// unit in place of res.State (whole-unit quarantines compile stateless,
	// so res.State is nil).
	qstate *core.UnitState
	// qclear means the unit's quarantine lifted and it restarts cold.
	qclear bool
	// fp is the unit's traced read footprint (footprint mode only): the
	// ground truth the next build's cross-check runs against.
	fp *footprint.Record
	// remote means the unit was served from the shared cache (res is nil;
	// casObj — and possibly casState — carry the verified fetch instead).
	remote   bool
	casObj   *codegen.Object
	casState *core.UnitState
	// stateBytes is the encoded size of the state the unit keeps (casState,
	// qstate or res.State), measured by the one encoding its save made.
	stateBytes int
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
	// prev is the unit's in-memory dormancy state, if any.
	prev *core.UnitState
	// probeDisk asks the worker to try loading state from StateDir first
	// (first compile of this unit in this process).
	probeDisk bool
}

// runCompiles compiles the partition's jobs (in unit-name order) and
// returns per-job outcomes and scheduling events aligned with them. Every
// job is ready when the pool starts: file-level units have no inter-unit
// dependencies. Compile failures return an error, so no event records one;
// cancellation does not — it leaves nil-result holes (and zero-unit event
// holes) for the caller to detect.
func (b *Builder) runCompiles(ctx context.Context, jobs []compileJob) ([]outcome, []obs.UnitEvent, error) {
	for i := range jobs {
		j := &jobs[i]
		if e, ok := b.units[j.name]; ok {
			j.prev = e.state
			j.probeDisk = !e.diskProbed && e.state == nil
		} else {
			j.probeDisk = true
		}
	}

	results := make([]outcome, len(jobs))
	events := make([]obs.UnitEvent, len(jobs))
	nworkers := len(b.workers)
	if nworkers > len(jobs) {
		nworkers = len(jobs)
	}
	if nworkers == 0 {
		return results, events, nil
	}

	if b.opts.Mode == compiler.ModeFullCache {
		b.runSharded(ctx, jobs, results, events, nworkers)
	} else {
		b.runStealing(ctx, jobs, results, events, nworkers)
	}

	for i := range results {
		err := results[i].err
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Cancellation is the caller's ctx speaking, not a unit failing;
			// report it as a hole, not an error.
			results[i] = outcome{}
			events[i] = obs.UnitEvent{}
			continue
		}
		return nil, nil, fmt.Errorf("buildsys: %w", err)
	}
	return results, events, nil
}

// runJob runs job i on worker w and records its scheduling event. Each
// slot in results/events is written by exactly one worker, so no
// synchronization is needed.
func (b *Builder) runJob(ctx context.Context, w, i int, jobs []compileJob, results []outcome, events []obs.UnitEvent) {
	startNS := b.tlNow()
	results[i] = b.compileOne(ctx, w, jobs[i])
	events[i] = b.unitEvent(w, jobs[i], results[i], startNS, b.tlNow())
}

// unitEvent classifies one job's outcome into its timeline event.
func (b *Builder) unitEvent(w int, j compileJob, out outcome, startNS, endNS int64) obs.UnitEvent {
	ev := obs.UnitEvent{Unit: j.name, Worker: w, Outcome: obs.OutcomeCompile, StartNS: startNS, EndNS: endNS}
	switch {
	case out.remote:
		ev.Outcome = obs.OutcomeRemote
	case out.panicked:
		ev.Outcome = obs.OutcomePanic
	case out.qstate != nil || out.qclear:
		ev.Outcome = obs.OutcomeQuarantine
	}
	if out.res != nil {
		ev.FrontendNS, ev.PassesNS, ev.CodegenNS = out.res.FrontendNS, out.res.PassesNS, out.res.CodegenNS
	}
	return ev
}

// runStealing drains jobs through a shared atomic cursor.
func (b *Builder) runStealing(ctx context.Context, jobs []compileJob, results []outcome, events []obs.UnitEvent, nworkers int) {
	var next int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= len(jobs) || failed.Load() || ctx.Err() != nil {
					return
				}
				b.runJob(ctx, w, i, jobs, results, events)
				if results[i].err != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
}

// runSharded assigns each job to a fixed worker by unit-name hash.
func (b *Builder) runSharded(ctx context.Context, jobs []compileJob, results []outcome, events []obs.UnitEvent, nworkers int) {
	shards := make([][]int, nworkers)
	for i, j := range jobs {
		// Shard on the full worker set, not nworkers: the unit→worker
		// mapping must not depend on how many units this build touches.
		s := int(contentHash([]byte(j.name)) % uint64(len(b.workers)))
		if s >= nworkers {
			// Fewer active workers than slots this build; fold in.
			s %= nworkers
		}
		shards[s] = append(shards[s], i)
	}
	// No early abort here: a shard must finish its whole list, or a
	// later-indexed failure in one shard could mask an earlier-indexed one
	// in another and make the reported error scheduling-dependent.
	// Cancellation still stops each shard (compileOne's entry check makes
	// the remaining jobs cheap holes).
	var wg sync.WaitGroup
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func(w int, idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				if ctx.Err() != nil {
					return
				}
				b.runJob(ctx, w, i, jobs, results, events)
			}
		}(w, shards[w])
	}
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
// The unit's IR does not leave with the outcome: the build system reads the
// object, the state and the statistics of a result, never its module, and
// an outcome lives until the build's history record is written — all 208
// post-pipeline modules of a cold build, re-marked by every collection, if
// they came along. The worker's compilers release their IR arenas here, so
// the next unit reuses the memory and an idle worker pins none of it.
func (b *Builder) compileOne(ctx context.Context, w int, j compileJob) (out outcome) {
	c := b.workers[w]
	defer func() {
		if out.res != nil {
			out.res.Module = nil
		}
		c.Release()
		if fc := b.fallbacks[w]; fc != nil {
			fc.Release()
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return outcome{err: fmt.Errorf("%s: build cancelled: %w", j.name, cerr)}
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
	if b.statefulMode() && prev != nil && prev.Quarantine.Whole() {
		return b.compileQuarantined(ctx, w, tr, j, prev)
	}

	// Shared cache: try a verified remote fetch before compiling.
	var action cas.Key // hashed once: the fetch and the publish share it
	if b.cas != nil {
		action = b.objectAction(j.name, j.src)
		if remote := b.casFetch(j, action); remote != nil {
			return *remote
		}
	}

	res, err, panicked, msg := safeCompile(ctx, c, j.name, j.src, prev)
	if panicked {
		return b.compileAfterPanic(ctx, w, tr, j, msg)
	}
	if err != nil {
		return outcome{err: err}
	}
	fp := b.finishTrace(tr, j, res)
	var enc []byte
	if res.State != nil {
		b.settleQuarantine(res)
		res.State.Footprint = fp
		enc = b.saveUnitState(j.name, res.State)
	}
	if b.cas != nil {
		b.casPublish(j, action, res, enc)
	}
	return outcome{res: res, fp: fp, stateBytes: len(enc)}
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
func (b *Builder) compileQuarantined(ctx context.Context, w int, tr *footprint.Trace, j compileJob, marker *core.UnitState) outcome {
	fc, ferr := b.fallback(w)
	if ferr != nil {
		return outcome{err: ferr}
	}
	res, err, panicked, msg := safeCompile(ctx, fc, j.name, j.src, nil)
	if panicked {
		// Still panicking even stateless: the unit cannot compile at all.
		// That is a unit diagnostic (like a compile error), and the probation
		// window restarts.
		b.ctr.panics.Inc()
		marker.Quarantine.Clean = 0
		b.saveUnitState(j.name, marker)
		return outcome{
			err:      fmt.Errorf("%s: pass panicked (unit quarantined, stateless retry): %s", j.name, msg),
			panicked: true,
		}
	}
	if err != nil {
		return outcome{err: err}
	}
	fp := b.finishTrace(tr, j, res)
	q := marker.Quarantine
	q.Clean++
	if q.Clean >= core.QuarantineCleanTarget {
		b.ctr.quarantineLifted.Inc()
		b.removeUnitState(j.name)
		return outcome{res: res, qclear: true, fp: fp}
	}
	marker.Footprint = fp
	enc := b.saveUnitState(j.name, marker)
	return outcome{res: res, qstate: marker, fp: fp, stateBytes: len(enc)}
}

// compileAfterPanic isolates a pass panic: count it, quarantine the unit's
// state (its records may have been half-updated by the panicking pass),
// and retry once on the stateless fallback so the unit — whose source is
// not at fault — still compiles.
func (b *Builder) compileAfterPanic(ctx context.Context, w int, tr *footprint.Trace, j compileJob, msg string) outcome {
	b.ctr.panics.Inc()
	b.warnf("panic: unit %s: pass panicked: %s (unit quarantined, compiled stateless)", j.name, msg)

	var marker *core.UnitState
	var enc []byte
	if b.statefulMode() {
		marker = core.NewUnitState(j.name, b.opts.Pipeline)
		marker.Quarantine = &core.Quarantine{Reason: core.QuarantinePanic}
		b.ctr.quarantineEngaged.Inc()
		enc = b.saveUnitState(j.name, marker)
	}

	fc, ferr := b.fallback(w)
	if ferr != nil {
		return outcome{err: ferr}
	}
	res, err, panicked2, msg2 := safeCompile(ctx, fc, j.name, j.src, nil)
	if panicked2 {
		b.ctr.panics.Inc()
		return outcome{
			err:      fmt.Errorf("%s: pass panicked (persisted through stateless retry): %s", j.name, msg2),
			panicked: true,
			qstate:   marker,
		}
	}
	if err != nil {
		return outcome{err: err}
	}
	return outcome{res: res, panicked: true, qstate: marker, fp: b.finishTrace(tr, j, res), stateBytes: len(enc)}
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
	if res.Stats != nil {
		if _, unsound := res.Stats.SentinelTotals(); unsound > 0 {
			b.ctr.quarantineEngaged.Inc()
			return
		}
	}
	st.Quarantine.Clean++
	if st.Quarantine.Clean >= core.QuarantineCleanTarget {
		st.Quarantine = nil
		b.ctr.quarantineLifted.Inc()
	}
}

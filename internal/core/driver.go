package core

// The stateful pipeline driver — the mechanism §4 of the paper describes
// for retrofitting a conventional pass manager:
//
//  1. Before running function pass i on function F, obtain F's current IR
//     fingerprint. Fingerprints are cached: a skipped or dormant pass
//     leaves the IR unchanged, so the fingerprint flows to the next slot
//     for free, and only *active* passes force a rehash. hashCache is the
//     only fingerprint cache: a rehash hashes the whole function, so no IR
//     write has to announce itself for a fingerprint to be right.
//
//  2. If the stored record for (F, i) matches the fingerprint and says
//     "dormant", skip the pass. Otherwise run it, time it, and store the
//     new observation.
//
//  3. Module passes get the same treatment keyed by a module fingerprint
//     assembled from the cached function fingerprints.
//
//  4. A function that enters a segment (a run of function-local slots)
//     with the exact IR it had in the unit's last in-memory compile takes
//     that compile's segment output instead of running the segment's
//     passes (replay.go).
//
// A policy is two bits: Records does the first three, Replay the fourth.
//
// One procedure, runSlot, does the first three for both slot kinds. The one
// checker of a skip is the soundness sentinel: with probability AuditRate a
// would-be skip runs anyway and its output fingerprint is compared with its
// input (AuditRate 1 checks every skip).

import (
	"context"
	"fmt"
	"slices"
	"time"

	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
)

// Policy selects the reuse a driver does: a set of two bits.
type Policy int

// Policies.
const (
	// Stateless runs every pass — the conventional compiler baseline.
	Stateless Policy = 0
	// Records is the paper's fingerprint-guarded dormant-pass skipping.
	Records Policy = 1
	// Replay is the full-IR caching comparator: segment replay (replay.go).
	Replay Policy = 2
	// Stateful does both.
	Stateful = Records | Replay
)

// String returns the policy name.
func (p Policy) String() string {
	if p&^Stateful != 0 {
		return fmt.Sprintf("policy(%d)", int(p))
	}
	return [...]string{"stateless", "records", "replay", "stateful"}[p]
}

// Options configures a Driver.
type Options struct {
	// Pipeline is the ordered pass list (defaults to passes.StandardPipeline).
	Pipeline []string
	// Policy selects the skipping strategy (default Stateless).
	Policy Policy
	// VerifyIR runs the IR verifier after every pass (slow; tests only).
	VerifyIR bool
	// AuditRate is the soundness sentinel's sampling probability in [0, 1]:
	// with this probability, a pass that would be skipped as dormant is
	// executed anyway and its output IR fingerprint compared against the
	// input. A mismatch is an unsound skip — recorded (SlotStats.Unsound,
	// audit.unsound) and auto-quarantining the (unit, pass) pair. 0
	// disables auditing; 1 audits every skip (tests).
	AuditRate float64
	// AuditSeed seeds the sentinel's deterministic sampling sequence
	// (default 1). The sample pattern affects only timing and counters,
	// never output: auditing a sound skip re-runs a dormant pass, which by
	// definition leaves the IR unchanged.
	AuditSeed uint64
	// Obs carries the observability context: per-slot spans go to its
	// tracer, pipeline totals to its counters. Nil disables both.
	Obs *obs.Sink
}

// Driver executes a pipeline over modules, maintaining dormancy state.
type Driver struct {
	opts  Options
	infos []passes.Info
	fps   []passes.FuncPass   // per slot (nil for module slots)
	mps   []passes.ModulePass // per slot (nil for function slots)

	// scratch is the working memory every pass instance above shares.
	// Drivers are single-threaded per worker, so no locking.
	scratch *passes.Scratch

	// auditState is the sentinel's splitmix64 PRNG state (advanced only
	// when 0 < AuditRate < 1).
	auditState uint64

	// prune is set when the pipeline holds deadfunc: Run then removes the
	// functions it would only delete before the first pass
	// (passes.PruneDeadFuncs), under every policy.
	prune bool

	// segs are the pipeline's segments (none without Replay),
	// segAt each slot's segment or -1, and replay their working memory
	// (replay.go).
	segs   []segment
	segAt  []int
	replay replay
	// front is what the frontend did for the next Run (frontend.go).
	front *Front
}

// NewDriver builds a driver for the configured pipeline.
func NewDriver(opts Options) (*Driver, error) {
	if len(opts.Pipeline) == 0 {
		opts.Pipeline = passes.StandardPipeline
	}
	// Every Stats the driver returns shares the pipeline as its names.
	opts.Pipeline = slices.Clone(opts.Pipeline)
	if opts.AuditSeed == 0 {
		opts.AuditSeed = 1
	}
	if opts.Policy&^Stateful != 0 {
		return nil, fmt.Errorf("core: unknown policy %d", int(opts.Policy))
	}
	d := &Driver{opts: opts, auditState: opts.AuditSeed, scratch: &passes.Scratch{}}
	for _, name := range opts.Pipeline {
		info, ok := passes.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("core: unknown pass %q", name)
		}
		d.infos = append(d.infos, info)
		d.prune = d.prune || name == "deadfunc"
		inst := info.New()
		passes.UseScratch(inst, d.scratch)
		if info.Module {
			d.fps = append(d.fps, nil)
			d.mps = append(d.mps, inst.(passes.ModulePass))
		} else {
			d.fps = append(d.fps, inst.(passes.FuncPass))
			d.mps = append(d.mps, nil)
		}
	}
	d.segs, d.segAt = segmentsOf(d.infos, opts.Policy)
	if len(d.segs) > 0 {
		d.replay.awaits = make(map[*ir.Func]*memoEntry)
	}
	return d, nil
}

// Pipeline returns the driver's pass list.
func (d *Driver) Pipeline() []string { return d.opts.Pipeline }

// auditFire rolls the sentinel's sampling decision: true means "execute
// this would-be skip and verify it". Deterministic (splitmix64 from
// AuditSeed) so sampling is reproducible within a driver; the pattern only
// affects timing and counters, never output.
func (d *Driver) auditFire() bool {
	p := d.opts.AuditRate
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	d.auditState += 0x9e3779b97f4a7c15
	z := d.auditState
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < p
}

// quarantineFor returns the state's quarantine, creating one with the
// given reason if absent.
func quarantineFor(st *UnitState, reason string) *Quarantine {
	if st.Quarantine == nil {
		st.Quarantine = &Quarantine{Reason: reason}
	}
	return st.Quarantine
}

// hashCache caches per-function fingerprints across pipeline slots: a
// skipped or dormant pass leaves the IR unchanged, so its fingerprint flows
// to the next slot, and only a pass that changed a function (invalidate)
// makes the next get hash it again, from scratch.
type hashCache struct {
	vals map[*ir.Func]uint64
	// awaits holds, for a function whose IR is still the output a memo
	// entry recorded, that entry: the function's next hash is the output's
	// fingerprint, and the entry keeps it (replay.go). The map is the
	// driver's, reused from unit to unit.
	awaits map[*ir.Func]*memoEntry
	stats  *Stats
}

// newCache returns a compile's empty hash cache.
func (d *Driver) newCache(stats *Stats) *hashCache {
	clear(d.replay.awaits)
	return &hashCache{vals: make(map[*ir.Func]uint64), awaits: d.replay.awaits, stats: stats}
}

func (c *hashCache) get(f *ir.Func) uint64 {
	if h, ok := c.vals[f]; ok {
		return h
	}
	start := time.Now()
	h := fingerprint.Function(f)
	c.stats.HashNS += time.Since(start).Nanoseconds()
	c.stats.Hashes++
	c.vals[f] = h
	if e := c.awaits[f]; e != nil {
		e.fp, e.hasFP = h, true
		delete(c.awaits, f)
	}
	return h
}

// await makes e take f's next hash, unless f changes first.
func (c *hashCache) await(f *ir.Func, e *memoEntry) { c.awaits[f] = e }

func (c *hashCache) invalidate(f *ir.Func) {
	delete(c.vals, f)
	delete(c.awaits, f)
}

// invalidateAll drops every cached hash: a module pass may have changed any
// function.
func (c *hashCache) invalidateAll() {
	clear(c.vals)
	clear(c.awaits)
}

// input fingerprints what a slot's pass reads: its function, or for a
// module slot the module, assembled from the cached function hashes.
func (c *hashCache) input(m *ir.Module, f *ir.Func, module bool) uint64 {
	if module {
		return fingerprint.ModuleWith(m, c.get)
	}
	return c.get(f)
}

// Run executes the pipeline on m. st supplies and receives the dormancy
// records (Records) and segment memo (Replay); it may be nil (or built for
// another pipeline), in which case a fresh state is created. The (possibly new)
// state is returned alongside the statistics.
func (d *Driver) Run(m *ir.Module, st *UnitState) (*UnitState, *Stats, error) {
	return d.RunContext(context.Background(), m, st)
}

// RunContext is Run with cooperative cancellation: the driver checks ctx
// between every function and every slot, so a cancelled build abandons a
// unit mid-pipeline within one pass execution. The returned error wraps
// ctx's error (errors.Is-able against context.Canceled/DeadlineExceeded);
// the partially updated state must not be persisted by the caller.
func (d *Driver) RunContext(ctx context.Context, m *ir.Module, st *UnitState) (*UnitState, *Stats, error) {
	// The scratch keeps its memory from unit to unit, not the unit's IR.
	defer d.scratch.Release()
	defer d.replay.release()
	// Segment 0 is recorded from the memo the frontend restored from, even
	// when the records are not compatible.
	var frontAudited, frontUnsound int
	if len(d.segs) > 0 {
		frontAudited, frontUnsound = d.recordFront(st, m)
	}
	d.front = nil
	if !st.Compatible(d.opts.Pipeline) {
		// Quarantine survives a pipeline change: it is keyed by pass name,
		// and distrust in a pass is not cured by reordering the pipeline.
		var q *Quarantine
		if st != nil {
			q = st.Quarantine
		}
		st = NewUnitState(m.Unit, d.opts.Pipeline)
		st.Quarantine = q
	}
	// Pruning comes before the first fingerprint, under every policy, so
	// none hashes, optimizes nor records a function deadfunc deletes
	// whatever its body (and the stateful gain is not credited with it).
	pruned := 0
	if d.prune {
		pruned = passes.PruneDeadFuncsBy(m, d.refs)
	}
	stats := &Stats{
		Pipeline:  d.opts.Pipeline,
		Slots:     make([]SlotStats, len(d.infos)),
		Functions: len(m.Funcs),
		Pruned:    pruned,

		FrontAudited: frontAudited,
		FrontUnsound: frontUnsound,
	}
	for i, info := range d.infos {
		stats.Slots[i].Module = info.Module
	}
	cache := d.newCache(stats)

	// The prune set is the functions entering the pipeline: a function the
	// pipeline itself deletes (deadfunc) reappears in the next build's
	// fresh IR, and its early-slot records must survive to be skippable. A
	// function pruned above has no records to keep.
	live := make(map[string]bool, len(m.Funcs))
	for _, f := range m.Funcs {
		live[f.Name] = true
	}
	if len(d.segs) > 0 {
		if err := d.begin(m.Funcs); err != nil {
			return d.abandon(st, stats, err)
		}
	}

	tr := d.opts.Obs.Trace()
	for slot, info := range d.infos {
		ss := &stats.Slots[slot]
		// Per-slot span bookkeeping: a slot's work is contiguous, so one
		// span covers it; hash time is attributed by delta.
		spanStart := tr.Now()
		hashes0, hashNS0 := stats.Hashes, stats.HashNS

		var err error
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("core: %s cancelled: %w", m.Unit, cerr)
		} else if info.Module {
			err = d.runSlot(m, nil, st, slot, ss, cache)
		} else {
			// Function slot: iterate a snapshot (module passes may have
			// changed the list; function passes do not). A slot of a
			// segment passes over the functions that replay it.
			funcs := append([]*ir.Func(nil), m.Funcs...)
			seg := d.segAt[slot]
			first := seg >= 0 && slot == d.segs[seg].first
			last := seg >= 0 && slot == d.segs[seg].last
			switch {
			case seg < 0:
				d.replay.touched = true
			case first:
				d.beginSegment(st, seg)
			}
			for i, f := range funcs {
				if cerr := ctx.Err(); cerr != nil {
					err = fmt.Errorf("core: %s cancelled: %w", m.Unit, cerr)
					break
				}
				replayed := seg >= 0 && !first && d.replay.fns[i].replayed
				if first {
					if replayed, err = d.enterFunc(st, seg, f, cache); err != nil {
						break
					}
				}
				if replayed {
					ss.Replayed++
				} else if err = d.runSlot(m, f, st, slot, ss, cache); err != nil {
					break
				}
				if last {
					d.leaveFunc(st, seg, i, ss, cache)
				}
			}
			if err == nil && last {
				// Until a slot outside the segments runs, the next
				// segment's input is this one's output.
				d.replay.touched = false
			}
		}
		if tr != nil {
			tr.Emit(obs.Span{
				Name: "pass:" + info.Name, Cat: obs.CatPass,
				Unit: m.Unit, TID: d.opts.Obs.ThreadID(),
				Start: spanStart, Dur: tr.Now() - spanStart,
				Slot: slot, Runs: ss.Runs, Skipped: ss.Skipped, Dormant: ss.Dormant, Replayed: ss.Replayed,
				Hashes: stats.Hashes - hashes0, HashNS: stats.HashNS - hashNS0,
			})
		}
		if err != nil {
			return d.abandon(st, stats, err)
		}
	}

	// Garbage-collect records of functions deleted from the source.
	st.Prune(live)
	if len(d.segs) > 0 {
		d.commit(st, m)
	}
	d.countStats(stats)
	return st, stats, nil
}

// abandon ends a compile cut short by err. It leaves records of half a
// pipeline: the memo no longer matches them, so it goes.
func (d *Driver) abandon(st *UnitState, stats *Stats, err error) (*UnitState, *Stats, error) {
	st.memo = memo{}
	d.countStats(stats)
	return st, stats, err
}

// countStats folds one compilation's totals into the shared pass counters
// — a handful of atomic adds per unit, safe under the worker pool.
func (d *Driver) countStats(stats *Stats) {
	pc := d.opts.Obs.PassCtrs()
	if pc == nil {
		return
	}
	var tot SlotStats
	for i := range stats.Slots {
		tot.add(&stats.Slots[i])
	}
	pc.Runs.Add(int64(tot.Runs))
	pc.Dormant.Add(int64(tot.Dormant))
	pc.Skipped.Add(int64(tot.Skipped))
	pc.Replayed.Add(int64(tot.Replayed))
	pc.RunNS.Add(tot.RunNS)
	pc.Hashes.Add(int64(stats.Hashes))
	pc.HashNS.Add(stats.HashNS)
	pc.FuncsPruned.Add(int64(stats.Pruned))
	pc.DecCold.Add(int64(tot.Cold))
	pc.DecNotDormant.Add(int64(tot.NotDormant))
	pc.DecFPMismatch.Add(int64(tot.FPMismatch))
	pc.DecPolicy.Add(int64(tot.Policy))
	pc.DecQuarantined.Add(int64(tot.Quarantined))
	pc.Audited.Add(int64(tot.Audited + stats.FrontAudited))
	pc.Unsound.Add(int64(tot.Unsound + stats.FrontUnsound))
}

// runSlot is the skip decision, the sentinel and the record update of one
// pipeline slot, on one function (f) or, for a module slot, on the module
// (f is nil). The two slot kinds differ only in what they hash, run,
// invalidate and verify; each of those four branches on info.Module.
func (d *Driver) runSlot(m *ir.Module, f *ir.Func, st *UnitState, slot int, ss *SlotStats, cache *hashCache) error {
	info := &d.infos[slot]
	records := d.opts.Policy&Records != 0
	var rec *Record
	var seen *bool
	switch {
	case !records:
	case info.Module:
		rec, seen = &st.ModuleSlots[slot], &st.ModuleSeen[slot]
	default:
		fs := st.funcState(f.Name, len(d.infos))
		rec, seen = &fs.Slots[slot], &fs.Seen[slot]
	}
	// A function pass that is not function-local reads more than its
	// function, so no function fingerprint can guard it.
	eligible := info.Module || info.FunctionLocal

	// Lazy hashing: a record that says "changed" can never satisfy a skip
	// and carries no fingerprint, so the hash is computed only when a
	// dormant record exists to check against — or after a run that turns
	// out dormant, when the (unmodified) IR still equals the pass input.
	// runReason points at the decision-provenance counter a non-skipped
	// execution charges.
	var h uint64
	haveHash, skip := false, false
	runReason := &ss.Policy
	switch {
	case !records:
	case st.Quarantined(info.Name):
		// Quarantined (unit, pass): skipping is suspended; the pass always
		// runs. Fresh observations are still recorded so trust rebuilds.
		runReason = &ss.Quarantined
	case !eligible:
	case !*seen:
		runReason = &ss.Cold
	case rec.Changed:
		runReason = &ss.NotDormant
	default:
		h, haveHash = cache.input(m, f, info.Module), true
		if rec.InputHash == h {
			skip = true
		} else {
			runReason = &ss.FPMismatch
		}
	}
	if skip && !d.auditFire() {
		ss.Skipped++
		return nil
	}

	start := time.Now()
	var changed bool
	if info.Module {
		changed = d.mps[slot].RunModule(m)
	} else {
		changed = d.fps[slot].Run(f)
	}
	ss.RunNS += time.Since(start).Nanoseconds()
	if changed || skip {
		// A module pass may have touched any function; an audited pass is
		// rehashed whatever it reported.
		if info.Module {
			// deadfunc removes whole functions: the others' IR is as it was.
			cache.invalidateAll()
			d.replay.touched = d.replay.touched || info.Name != "deadfunc"
		} else {
			cache.invalidate(f)
		}
	}

	if skip {
		// Soundness sentinel: the would-be skip ran anyway. Identical output
		// confirms the skip was sound (and costs only this audit); a
		// mismatch is an unsound skip — the record was lying (a
		// nondeterministic or impure pass), so the (unit, pass) pair is
		// quarantined and the record invalidated. Either way the IR now on
		// hand is exactly what a stateless compiler would have produced.
		ss.Audited++
		if cache.input(m, f, info.Module) == h {
			ss.Skipped++ // the skip decision stands, audited and confirmed
			return nil
		}
		ss.Runs++
		ss.Unsound++
		*rec, *seen = Record{Changed: true}, true
		quarantineFor(st, QuarantineUnsound).AddPass(info.Name)
	} else {
		ss.Runs++
		(*runReason)++
		if !changed {
			ss.Dormant++
		}
		if records && eligible {
			if changed {
				*rec = Record{Changed: true}
			} else {
				if !haveHash {
					// The pass was dormant, so the IR still equals its input;
					// hash it now (and the cache stays warm for the next slot).
					h = cache.input(m, f, info.Module)
				}
				*rec = Record{InputHash: h}
			}
			*seen = true
		}
	}

	if !d.opts.VerifyIR {
		return nil
	}
	if info.Module {
		if err := m.Verify(); err != nil {
			return fmt.Errorf("core: module pass %s broke %s: %w", info.Name, m.Unit, err)
		}
	} else if err := f.Verify(); err != nil {
		return fmt.Errorf("core: pass %s broke %s.%s: %w", info.Name, m.Unit, f.Name, err)
	}
	return nil
}

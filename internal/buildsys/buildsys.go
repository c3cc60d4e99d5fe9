// Package buildsys is the content-hash incremental build system layered
// under the stateful compiler — the "internal build system" the paper's
// end-to-end numbers are measured through. A Builder retains state across
// Build calls:
//
//   - a per-unit object cache keyed by a content hash of the source, so
//     unchanged units are never recompiled (the make/ninja file-level
//     skipping the paper's dilution structure depends on);
//
//   - per-unit dormancy state for the stateful policy, fed
//     back into the compiler when a changed unit *is* recompiled, and
//     optionally persisted to a state directory so the next process still
//     skips dormant passes; and
//
//   - one compiler per worker slot, so changed units compile concurrently
//     on a bounded pool (compilers are not safe for concurrent use).
//
// Correctness contract: a parallel stateful build produces byte-identical
// linked programs to a serial stateless build of the same snapshot. Unit
// compilation is deterministic and independent, and the linker orders
// objects by unit name, so neither worker scheduling nor the skipping
// policy can leak into the output.
package buildsys

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/footprint"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/vfs"
)

// Options configures a Builder.
type Options struct {
	// Mode is the compilation policy for every unit.
	Mode compiler.Mode
	// Workers bounds concurrent unit compilations; values < 1 normalize to
	// GOMAXPROCS.
	Workers int
	// StateDir, when set, persists per-unit dormancy state across
	// processes (stateful mode). Missing or corrupt state
	// files are treated as a cold start, never an error.
	StateDir string
	// VerifyIR forwards to the compiler (slow; tests only).
	VerifyIR bool
	// AuditRate enables the soundness sentinel: with this probability a
	// pass that would be skipped as dormant executes anyway and its output
	// fingerprint is verified against the input. 0 disables; 1 audits every
	// skip (tests). See docs/ROBUSTNESS.md.
	AuditRate float64
	// Pipeline overrides the pass list (default passes.StandardPipeline).
	Pipeline []string
	// Trace, when set, receives build/link/unit/stage/pass spans from
	// every Build call on a shared timeline (minibuild -trace). Nil
	// disables span collection; counters are always kept.
	Trace *obs.Tracer
	// HistoryPath is the flight-recorder file every successful Build
	// appends a record to. Empty defaults to history.Path(StateDir) when a
	// state directory is set; "-" disables recording entirely. Appends are
	// advisory: failures never fail the build.
	HistoryPath string
	// HistoryLimit bounds each of the history's two segment files to N
	// records, so that the newest N at least are kept (default
	// history.DefaultLimit).
	HistoryLimit int
	// FS is the filesystem the state and history layers perform their I/O
	// through. Nil means the real filesystem; the chaos suites inject a
	// vfs.FaultFS here to prove every I/O failure degrades to at most a
	// cold build (see docs/ROBUSTNESS.md).
	FS vfs.FS
	// Footprint enables dependency-footprint tracing (internal/footprint):
	// every compile records its actual read set, the record is persisted
	// with the unit's state, and each build cross-checks the declared cache
	// decisions against the traced ground truth, surfacing missed and
	// redundant invalidations (footprint.* counters, Report fields,
	// warnings). Check-only: decisions are unchanged.
	Footprint bool
	// EnforceFootprint makes the traced footprint authoritative (implies
	// Footprint): a unit whose footprint changed recompiles even if the
	// declared hash says cached, and a unit whose footprint is unchanged is
	// served from cache even if the declared hash moved — the always-correct
	// mode (docs/ROBUSTNESS.md).
	EnforceFootprint bool
	// ContentHashHook, when set, replaces the declared content hash for a
	// unit (receives the honest hash). It is called once per unit per build,
	// on the goroutine that called Build. Test-only: a deliberately lying
	// invalidator for the footprint battery. The footprint's own ground
	// truth never goes through this hook.
	ContentHashHook func(unit string, src []byte, honest uint64) uint64
	// CAS, when set, is the shared content-addressed cache (internal/cas):
	// units that miss the local object cache are fetched from it by action
	// key — with every blob byte-verified before use — and honest local
	// compiles publish their objects and dormancy state back. Advisory:
	// every CAS failure degrades to a local recompile with a warning (see
	// cas.go).
	CAS cas.Store
}

// Report summarizes one Build call. Its Record is the build's
// flight-recorder record, filled in the shape it is stored in: Units lists the
// units the build decided (compiled, fetched from the shared cache,
// quarantined, or named by the footprint check), Timeline has an event for
// each unit that occupied a worker, and a unit served from the object cache is
// a share of UnitsCached and of CachedDigest (Record.Unit answers for it).
// TotalNS leaves out the flight-recorder append that follows the link (the
// history.append span times that). Metrics is a snapshot of the builder's
// counters registry taken after this build; counters are cumulative across
// the builder's lifetime (docs/OBSERVABILITY.md has the schema). A cancelled
// build's Record has the units that completed and no Timeline.
type Report struct {
	history.Record
	// Program is the linked executable.
	Program *codegen.Program
	// Warnings lists the state/history I/O failures this build absorbed:
	// the build is correct but ran degraded (cold starts, unpersisted
	// state, dropped flight-recorder records). Mirrored by the
	// state.io_error / history.io_error counters in Metrics.
	Warnings []string

	stats *core.Stats
}

// Stats returns the pass-manager statistics merged across the units
// compiled by this build (empty — never nil — when everything was cached
// or the mode records none).
func (r *Report) Stats() *core.Stats { return r.stats }

// Utilization reports the worker pool's utilization of this build's
// compile phase: busy time across workers — the timeline's events — over
// workers × phase wall time (0 without a timeline or a compile phase).
func (r *Report) Utilization() float64 {
	if r.Timeline == nil || r.CompileNS <= 0 {
		return 0
	}
	return float64(r.Timeline.BusyNS()) / (float64(r.CompileNS) * float64(r.Workers))
}

// unitEntry is the retained per-unit build state.
type unitEntry struct {
	hash       uint64            // declared content hash of the compiled source
	src        []byte            // newest source seen for the unit: the caller's slice, not a copy
	honest     uint64            // contentHash(src)
	obj        *codegen.Object   // cached object
	state      *core.UnitState   // dormancy records (stateful), and the segment memo that lives only here
	stateBytes int               // serialized size of state
	diskProbed bool              // StateDir was already consulted for this unit
	fp         *footprint.Record // traced read footprint of the last compile
}

// Builder runs incremental builds, retaining object and compiler state
// between Build calls. It is not safe for concurrent use; one Build runs
// at a time (its internal workers provide the parallelism).
type Builder struct {
	opts    Options
	fs      vfs.FS               // normalized Options.FS (never nil)
	workers []*compiler.Compiler // one per worker slot, reused across builds
	units   map[string]*unitEntry

	// fallbacks are lazily created stateless compilers, one per worker
	// slot, used to retry a unit whose compile panicked (panic isolation)
	// and to compile whole-unit-quarantined units until their quarantine
	// lifts.
	fallbacks []*compiler.Compiler
	passCtrs  *obs.PassCounters

	// Observability: reg is the builder's counter registry; ctr holds the
	// pre-resolved counters the build loop and workers update; hist the
	// pre-resolved latency histograms.
	reg  *obs.Registry
	ctr  builderCounters
	hist builderHists

	// cas is the resolved shared-cache handle (nil when Options.CAS is
	// unset); see cas.go.
	cas *builderCAS

	// linker links every build, checking again only the objects that moved
	// since the last; recorder is the flight recorder's appender (nil when
	// recording is off), which remembers what its last append left.
	linker   codegen.Linker
	recorder *history.Appender

	// tlEpoch is the current build's monotonic epoch: every timeline
	// timestamp is time.Since(tlEpoch) — never a wall-clock subtraction,
	// which an NTP step could corrupt (see obs.Timeline). Set at the top of
	// each BuildContext; read by pool workers via tlNow.
	tlEpoch time.Time

	// Degradation warnings accumulated during the current Build (workers
	// append concurrently), deduplicated by message and snapshotted into
	// Report.Warnings.
	warnMu      sync.Mutex
	warnSeen    map[string]int
	warnOrder   []string
	warnDropped int
}

// builderCounters are the registry counters the build system updates
// directly (the pipeline's own counters are resolved by obs.Registry.Pass
// and updated from worker goroutines via the compiler sinks).
type builderCounters struct {
	builds, unitsCompiled, unitsCached      *obs.Counter
	linkNS                                  *obs.Counter
	frontendNS, passesNS, codegenNS         *obs.Counter
	stateLoads, stateLoadMisses, stateSaves *obs.Counter
	stateSaveUnchanged, stateBytesWritten   *obs.Counter
	stateIOErrors, historyIOErrors          *obs.Counter
	historyTailReads                        *obs.Counter
	workerBusyNS                            *obs.Counter
	panics, cancelled                       *obs.Counter
	quarantineEngaged, quarantineLifted     *obs.Counter
	footprintChecked                        *obs.Counter
	footprintMissed, footprintRedundant     *obs.Counter
	sourceBytesHashed, linkObjectsChecked   *obs.Counter
}

// builderHists are the registry latency histograms the build loop feeds
// (one Observe per unit or build; see docs/OBSERVABILITY.md).
type builderHists struct {
	unitCompile  *obs.Histogram
	skipDecision *obs.Histogram
	buildWall    *obs.Histogram
}

// NewBuilder creates an incremental builder.
func NewBuilder(opts Options) (*Builder, error) {
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if len(opts.Pipeline) == 0 {
		opts.Pipeline = passes.StandardPipeline
	}
	opts.Pipeline = append([]string(nil), opts.Pipeline...)

	reg := obs.NewRegistry()
	b := &Builder{
		opts:  opts,
		fs:    vfs.Default(opts.FS),
		units: make(map[string]*unitEntry),
		reg:   reg,
		ctr: builderCounters{
			builds:             reg.Counter(obs.CtrBuilds),
			unitsCompiled:      reg.Counter(obs.CtrUnitsCompiled),
			unitsCached:        reg.Counter(obs.CtrUnitsCached),
			linkNS:             reg.Counter(obs.CtrLinkNS),
			frontendNS:         reg.Counter(obs.CtrFrontendNS),
			passesNS:           reg.Counter(obs.CtrPassesNS),
			codegenNS:          reg.Counter(obs.CtrCodegenNS),
			stateLoads:         reg.Counter(obs.CtrStateLoads),
			stateLoadMisses:    reg.Counter(obs.CtrStateLoadMisses),
			stateSaves:         reg.Counter(obs.CtrStateSaves),
			stateSaveUnchanged: reg.Counter(obs.CtrStateSaveUnchanged),
			stateBytesWritten:  reg.Counter(obs.CtrStateBytesWritten),
			stateIOErrors:      reg.Counter(obs.CtrStateIOErrors),
			historyIOErrors:    reg.Counter(obs.CtrHistoryIOErrors),
			historyTailReads:   reg.Counter(obs.CtrHistoryTailReads),
			workerBusyNS:       reg.Counter(obs.CtrWorkerBusyNS),
			panics:             reg.Counter(obs.CtrBuildPanics),
			cancelled:          reg.Counter(obs.CtrBuildCancelled),
			quarantineEngaged:  reg.Counter(obs.CtrQuarantineEngaged),
			quarantineLifted:   reg.Counter(obs.CtrQuarantineLifted),
			footprintChecked:   reg.Counter(obs.CtrFootprintChecked),
			footprintMissed:    reg.Counter(obs.CtrFootprintMissed),
			footprintRedundant: reg.Counter(obs.CtrFootprintRedundant),
			sourceBytesHashed:  reg.Counter(obs.CtrSourceBytesHashed),
			linkObjectsChecked: reg.Counter(obs.CtrLinkObjectsChecked),
		},
		hist: builderHists{
			unitCompile:  reg.Histogram(obs.HistUnitCompileNS),
			skipDecision: reg.Histogram(obs.HistSkipDecisionNS),
			buildWall:    reg.Histogram(obs.HistBuildWallNS),
		},
		fallbacks: make([]*compiler.Compiler, opts.Workers),
		warnSeen:  make(map[string]int),
	}
	b.cas = newBuilderCAS(opts.CAS, reg)
	if path := b.historyPath(); path != "" {
		b.recorder = history.NewAppender(b.fs, path, opts.HistoryLimit, b.ctr.historyTailReads)
	}
	pass := reg.Pass()
	b.passCtrs = pass
	for i := 0; i < opts.Workers; i++ {
		c, err := compiler.New(compiler.Options{
			Pipeline:  opts.Pipeline,
			Mode:      opts.Mode,
			VerifyIR:  opts.VerifyIR,
			AuditRate: opts.AuditRate,
			// Each worker slot gets its own sampling stream so audits are
			// not correlated across workers.
			AuditSeed: 1 + uint64(i),
			// Worker i reports as logical thread i+1; thread 0 is the
			// build orchestrator.
			Obs: &obs.Sink{Tracer: opts.Trace, Pass: pass, TID: i + 1},
		})
		if err != nil {
			return nil, fmt.Errorf("buildsys: %w", err)
		}
		b.workers = append(b.workers, c)
	}
	b.sweepStateTemp()
	return b, nil
}

// fallback returns worker w's stateless fallback compiler, creating it on
// first use. The fallback compiles a unit whose normal compile panicked
// (or that is whole-unit quarantined) with no persistent state involved.
func (b *Builder) fallback(w int) (*compiler.Compiler, error) {
	if b.fallbacks[w] == nil {
		c, err := compiler.New(compiler.Options{
			Pipeline: b.opts.Pipeline,
			Mode:     compiler.ModeStateless,
			VerifyIR: b.opts.VerifyIR,
			Obs:      &obs.Sink{Tracer: b.opts.Trace, Pass: b.passCtrs, TID: w + 1},
		})
		if err != nil {
			return nil, fmt.Errorf("buildsys: fallback compiler: %w", err)
		}
		b.fallbacks[w] = c
	}
	return b.fallbacks[w], nil
}

// keepsRecords reports whether the builder's policy keeps per-unit
// dormancy records (and therefore state files, and something to
// quarantine).
func (b *Builder) keepsRecords() bool {
	return b.opts.Mode&core.Records != 0
}

// Metrics snapshots the builder's counters registry (cumulative across
// builds; see docs/OBSERVABILITY.md for the counter schema).
func (b *Builder) Metrics() map[string]int64 { return b.reg.Snapshot() }

// Histograms snapshots the builder's latency histograms (cumulative across
// builds, same lifetime as Metrics): per-unit compile latency, skip-decision
// latency, and whole-build wall time.
func (b *Builder) Histograms() map[string]obs.HistogramSnapshot { return b.reg.HistSnapshot() }

// tlNow reads the current build's timeline clock: monotonic nanoseconds
// since the build's epoch.
func (b *Builder) tlNow() int64 { return time.Since(b.tlEpoch).Nanoseconds() }

// Workers returns the normalized worker count.
func (b *Builder) Workers() int { return b.opts.Workers }

// Build compiles the snapshot incrementally: unchanged units come from the
// object cache, changed units compile concurrently, and the result links
// deterministically (unit-name order, independent of scheduling).
//
// Build keeps a reference to each unit's bytes until the next build, so
// that an unchanged unit is compared, not hashed again. Never modify a
// slice after passing it in; Clone the snapshot first and edit the copy.
func (b *Builder) Build(snap project.Snapshot) (*Report, error) {
	return b.BuildContext(context.Background(), snap)
}

// BuildContext is Build under a cancellation context. A deadline or
// cancellation aborts the build cooperatively: in-flight units stop
// between pass slots, their state is not persisted, and the call returns
// a *partial* Report (the units that did complete, no Program) alongside
// an error wrapping ctx's error. Completed units' state files are fully
// written, so the state directory is always loadable by the next process.
func (b *Builder) BuildContext(ctx context.Context, snap project.Snapshot) (*Report, error) {
	start := time.Now()
	b.tlEpoch = start
	buildStart := b.opts.Trace.Now()
	if len(snap) == 0 {
		return nil, fmt.Errorf("buildsys: empty snapshot (no units to build)")
	}
	b.warnMu.Lock()
	b.warnSeen, b.warnOrder, b.warnDropped = make(map[string]int), nil, 0
	b.warnMu.Unlock()

	// Drop units removed from the project, including their on-disk state.
	for name := range b.units {
		if _, ok := snap[name]; !ok {
			delete(b.units, name)
			b.removeUnitState(name)
		}
	}

	rep := &Report{
		Record: history.Record{
			Mode:    b.opts.Mode.String(),
			Workers: b.opts.Workers,
			Units:   make(map[string]history.UnitRecord),
		},
		stats: &core.Stats{},
	}

	// Partition: content-hash every unit once, collect the ones needing
	// work. With footprint tracing on, every declared decision is
	// cross-checked against the unit's traced read footprint — and under
	// EnforceFootprint the footprint verdict overrides the declared one.
	// A cached unit the check named is listed in the record; the others are
	// its CachedDigest.
	pipeHash := footprint.HashStrings(b.opts.Pipeline)
	units := snap.Units()
	var work []compileJob
	var unlisted []string
	for _, name := range units {
		src := snap[name]
		decStartNS := b.tlNow()
		e := b.units[name]
		honest := b.sourceHash(e, src)
		if e != nil {
			e.src, e.honest = src, honest
		}
		h := b.declaredHash(name, src, honest)
		cached := e != nil && e.hash == h && e.obj != nil
		named := len(rep.FootprintMissed) + len(rep.FootprintRedundant)
		if b.footprintOn() {
			cached = b.crossCheck(rep, e, name, src, pipeHash, cached)
		}
		b.hist.skipDecision.Observe(b.tlNow() - decStartNS)
		if cached {
			if e.hash != h {
				// Enforcement proved the object valid under a moved declared
				// hash; adopt the new hash so the channels re-converge.
				e.hash = h
			}
			if named != len(rep.FootprintMissed)+len(rep.FootprintRedundant) {
				rep.Units[name] = history.UnitRecord{Cached: true}
			} else {
				unlisted = append(unlisted, name)
			}
			rep.UnitsCached++
			continue
		}
		work = append(work, compileJob{name: name, src: src, honest: honest, hash: h})
	}
	rep.CachedDigest = history.CachedDigest(unlisted)

	// Compile changed units on the worker pool. The phase-start stamp is
	// taken after compileStart so scheduled events (recorded inside) land
	// within [CompileStartNS, CompileStartNS+CompileNS] on the timeline.
	compileStart := time.Now()
	compileStartNS := b.tlNow()
	results, err := b.runCompiles(ctx, work)
	if err != nil {
		return nil, err
	}
	rep.CompileNS = time.Since(compileStart).Nanoseconds()
	tl := &obs.Timeline{CompileStartNS: compileStartNS, Events: make([]obs.UnitEvent, 0, len(work))}

	// Commit results in unit order so report stats, cache contents, and
	// state sizes never depend on worker scheduling. A cancelled build has
	// holes (results without an object): completed units still commit —
	// their state files are already fully written — and the build reports
	// partially below.
	cancelled := false
	for i, j := range work {
		r := &results[i]
		if r.obj == nil {
			cancelled = true
			continue
		}
		e := b.commitEntry(j)
		// The worker consulted the state directory (or superseded it).
		e.obj, e.state, e.stateBytes, e.fp, e.diskProbed = r.obj, r.state, r.stateBytes, r.fp, true
		rep.Units[j.name] = r.rec
		tl.Events = append(tl.Events, r.ev)
		if r.rec.Remote {
			rep.UnitsCached++
			rep.UnitsRemote++
		} else {
			rep.UnitsCompiled++
			b.hist.unitCompile.Observe(r.rec.CompileNS)
		}
		if r.stats != nil {
			rep.stats.Merge(r.stats)
			rep.Pipeline = b.opts.Pipeline
		}
		b.ctr.frontendNS.Add(r.ev.FrontendNS)
		b.ctr.passesNS.Add(r.ev.PassesNS)
		b.ctr.codegenNS.Add(r.ev.CodegenNS)
	}

	if cancelled {
		// Partial report: no link, no history record; counters and warnings
		// still reflect the work that happened.
		b.ctr.cancelled.Inc()
		rep.StateBytes = b.stateBytes()
		rep.TotalNS = time.Since(start).Nanoseconds()
		b.ctr.workerBusyNS.Add(tl.BusyNS())
		rep.Metrics = b.reg.Snapshot()
		rep.Warnings = b.takeWarnings()
		cerr := ctx.Err()
		if cerr == nil {
			cerr = context.Canceled
		}
		return rep, fmt.Errorf("buildsys: build cancelled: %w", cerr)
	}

	// Link everything, cached and fresh, in deterministic order.
	linkStart := time.Now()
	linkSpanStart := b.opts.Trace.Now()
	objs := make([]*codegen.Object, 0, len(units))
	for _, name := range units {
		objs = append(objs, b.units[name].obj)
	}
	prog, err := b.linker.Link(objs)
	b.ctr.linkObjectsChecked.Add(int64(b.linker.Checked()))
	if err != nil {
		return nil, fmt.Errorf("buildsys: %w", err)
	}
	rep.LinkNS = time.Since(linkStart).Nanoseconds()
	rep.Program = prog
	b.opts.Trace.Emit(obs.Span{Name: "link", Cat: obs.CatBuild, TID: 0,
		Start: linkSpanStart, Dur: rep.LinkNS})

	rep.StateBytes = b.stateBytes()
	rep.TotalNS = time.Since(start).Nanoseconds()
	b.hist.buildWall.Observe(rep.TotalNS)
	// The events are in job order, which is unit order.
	rep.Timeline = tl

	// Build-level accounting: counters first, then the snapshot the
	// report carries.
	b.ctr.builds.Inc()
	b.ctr.unitsCompiled.Add(int64(rep.UnitsCompiled))
	b.ctr.unitsCached.Add(int64(rep.UnitsCached))
	b.ctr.linkNS.Add(rep.LinkNS)
	b.ctr.workerBusyNS.Add(tl.BusyNS())
	rep.Metrics = b.reg.Snapshot()
	rep.SkipRatePct = 100 * obs.SkipRate(rep.Metrics)
	rep.TimeUnixMS = time.Now().UnixMilli()
	b.opts.Trace.Emit(obs.Span{Name: "build", Cat: obs.CatBuild, TID: 0,
		Start: buildStart, Dur: rep.TotalNS})
	b.recordHistory(rep)
	rep.Warnings = b.takeWarnings()
	return rep, nil
}

// maxWarnings bounds distinct warning messages per build. A pathological
// filesystem (every op failing) or a long-lived serve process must never
// balloon a Report: repeats of a message only bump its count, and past the
// cap on distinct messages only a dropped count is kept.
const maxWarnings = 32

// warnf records one degradation warning for the current build,
// deduplicated by rendered message.
func (b *Builder) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.warnMu.Lock()
	defer b.warnMu.Unlock()
	if _, ok := b.warnSeen[msg]; ok {
		b.warnSeen[msg]++
		return
	}
	b.warnSeen[msg] = 1
	if len(b.warnOrder) >= maxWarnings {
		// Past the cap only the count of *distinct* dropped messages is
		// kept (repeats of a dropped message stay deduplicated above).
		b.warnDropped++
		return
	}
	b.warnOrder = append(b.warnOrder, msg)
}

// takeWarnings snapshots the current build's warnings for its report, in
// first-occurrence order with repeat counts folded into "(×N)" suffixes.
func (b *Builder) takeWarnings() []string {
	b.warnMu.Lock()
	defer b.warnMu.Unlock()
	if len(b.warnOrder) == 0 && b.warnDropped == 0 {
		return nil
	}
	out := make([]string, 0, len(b.warnOrder)+1)
	for _, msg := range b.warnOrder {
		if n := b.warnSeen[msg]; n > 1 {
			msg = fmt.Sprintf("%s (×%d)", msg, n)
		}
		out = append(out, msg)
	}
	if b.warnDropped > 0 {
		out = append(out, fmt.Sprintf("… and %d more distinct warnings", b.warnDropped))
	}
	return out
}

// stateBytes reports the retained state footprint: serialized dormancy
// records for a policy that keeps them, the units' in-memory segment
// outputs for Replay alone.
func (b *Builder) stateBytes() int {
	n := 0
	for _, e := range b.units {
		if b.keepsRecords() {
			n += e.stateBytes
		} else {
			n += e.state.MemoBytes()
		}
	}
	return n
}

// commitEntry returns the entry of a unit the pool settled, creating it
// for a new unit, stamped with the hashes the partition computed for the
// source the job built.
func (b *Builder) commitEntry(j compileJob) *unitEntry {
	e, ok := b.units[j.name]
	if !ok {
		e = &unitEntry{}
		b.units[j.name] = e
	}
	e.hash, e.src, e.honest = j.hash, j.src, j.honest
	return e
}

// sourceHash is contentHash(src), taken from the unit's entry when src
// holds the bytes the entry last saw. A slice the caller passed again is
// equal at once (same array, same length); a fresh copy costs a compare,
// about a quarter of hashing it.
func (b *Builder) sourceHash(e *unitEntry, src []byte) uint64 {
	if e != nil && bytes.Equal(e.src, src) {
		return e.honest
	}
	b.ctr.sourceBytesHashed.Add(int64(len(src)))
	return contentHash(src)
}

// contentHash fingerprints a unit's source bytes — the file-level identity
// the object cache is keyed by.
func contentHash(src []byte) uint64 {
	// The IR fingerprint hasher doubles as a fast general-purpose hash;
	// length prefixing (inside Bytes) keeps it unambiguous.
	h := fingerprint.New()
	h.Bytes(src)
	return h.Sum()
}

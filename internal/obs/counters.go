package obs

// The counters registry. Names are resolved to *Counter once at setup;
// from then on every update is one atomic add, which is what keeps the
// registry safe and cheap under the build system's worker pool.

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Standard counter names. Components may register additional names; these
// are the ones the stack emits and the docs/metrics schema guarantee.
const (
	// Pipeline counters (updated once per compiled unit by the driver).
	CtrPassRuns    = "pass.runs"
	CtrPassDormant = "pass.dormant"
	CtrPassSkipped = "pass.skipped"
	// pass.replayed counts the pass executions a segment replay avoided: a
	// function whose segment input matched the resident builder's memo took
	// the recorded output, and each slot of the segment counts it once.
	CtrPassReplayed = "pass.replayed"
	CtrPassRunNS    = "pass.run_ns"
	CtrHashes       = "fingerprint.hashes"
	CtrHashNS       = "fingerprint.hash_ns"
	// pass.funcs_pruned counts the functions the driver removed before the
	// first pass: never called, naming no private global, so deadfunc would
	// delete them whatever the passes before it did
	// (passes.PruneDeadFuncs). A work counter, deterministic for a given
	// source.
	CtrFuncsPruned = "pass.funcs_pruned"

	// Frontend counters (updated once per compiled unit by the compiler).
	// frontend.funcs_lowered counts the functions the frontend lexed,
	// parsed, checked and lowered; frontend.funcs_reused the ones whose
	// declaration it found unchanged since the unit's last compile in the
	// process, passed over unread and restored from the memo (Replay only);
	// frontend.bytes_lexed the source bytes the lexer read. Work counters,
	// deterministic for a given build sequence at audit rate 0 or 1 (a
	// sampled reuse is lowered).
	CtrFuncsLowered = "frontend.funcs_lowered"
	CtrFuncsReused  = "frontend.funcs_reused"
	CtrBytesLexed   = "frontend.bytes_lexed"

	// Code generation counters (updated once per compiled unit by the
	// driver's Codegen). codegen.funcs_compiled counts the functions whose
	// code was generated; codegen.funcs_reused the ones that took their code
	// from the unit's last object in the process, their final IR unchanged
	// (Replay only). Work counters, deterministic for a given build sequence
	// at audit rate 0 or 1 (a sampled reuse is generated).
	CtrCodeCompiled = "codegen.funcs_compiled"
	CtrCodeReused   = "codegen.funcs_reused"

	// Deprecated: the estimate of pass time skipping saved summed a pass-cost
	// average each dormancy record used to carry. A record is now a
	// fingerprint and a bit, and nothing registers this counter. It stays
	// only because benchmark/trace.go still reads it (its passes.saved_ms
	// row reads 0); the benchmark change that drops that row deletes it.
	CtrPassSavedNS = "pass.saved_ns"

	// Deprecated: the per-block fingerprint memo these counted was deleted
	// in PR 25 and nothing registers them. They stay only because
	// benchmark/trace.go still reads them (its fingerprint.memo_hit_rate row
	// reads 0); the [benchmark] PR that drops that row deletes them.
	CtrBlocksMemoized = "fingerprint.blocks_memoized"
	// Deprecated: see CtrBlocksMemoized.
	CtrBlocksRehashed = "fingerprint.blocks_rehashed"

	// Decision-provenance counters: every pass execution decision falls
	// into exactly one bucket (see core.Reason* and docs/OBSERVABILITY.md);
	// the skipped-dormant bucket is pass.skipped.
	CtrDecCold        = "decision.cold_state"
	CtrDecNotDormant  = "decision.not_dormant"
	CtrDecFPMismatch  = "decision.fingerprint_mismatch"
	CtrDecPolicy      = "decision.policy_disabled"
	CtrDecQuarantined = "decision.quarantined"

	// Soundness-sentinel counters: audit.sampled counts would-be skips the
	// sentinel executed anyway; audit.unsound counts the ones whose output
	// fingerprint differed from the input — unsound skips, each of which
	// auto-quarantines its (unit, pass) pair (docs/ROBUSTNESS.md).
	CtrAuditSampled = "audit.sampled"
	CtrAuditUnsound = "audit.unsound"

	// Per-unit stage counters (updated by the build system at commit).
	CtrFrontendNS = "stage.frontend_ns"
	CtrPassesNS   = "stage.passes_ns"
	CtrCodegenNS  = "stage.codegen_ns"

	// Build counters.
	CtrBuilds        = "build.count"
	CtrUnitsCompiled = "build.units_compiled"
	CtrUnitsCached   = "build.units_cached"
	CtrLinkNS        = "build.link_ns"
	// build.source_bytes_hashed counts the source bytes the partition loop
	// content-hashed: a unit whose bytes equal the ones its entry last saw
	// is compared instead, so a resident no-edit build reads 0. A work
	// counter, deterministic for a given snapshot history.
	CtrSourceBytesHashed = "build.source_bytes_hashed"
	// build.link_objects_checked counts the objects whose call and
	// global-address sites the link resolved: every object on a builder's
	// first link, after that the objects that changed and those naming a
	// function or global that moved (codegen.Linker), so a resident no-edit
	// build reads 0. A work counter, deterministic for a given snapshot
	// history.
	CtrLinkObjectsChecked = "build.link_objects_checked"

	// Adversity counters: pass panics converted to unit diagnostics,
	// builds abandoned by cancellation/deadline, and quarantine
	// engagements/lifts (see docs/ROBUSTNESS.md).
	CtrBuildPanics       = "build.panic"
	CtrBuildCancelled    = "build.cancelled"
	CtrQuarantineEngaged = "quarantine.engaged"
	CtrQuarantineLifted  = "quarantine.lifted"

	// Dependency-footprint cross-check counters (internal/footprint,
	// docs/ROBUSTNESS.md): footprint.checked counts units whose cache
	// decision was cross-checked against their traced read footprint;
	// footprint.missed counts missed invalidations — a unit the declared
	// content-hash model would reuse while a footprint member changed (a
	// soundness violation, the thing `make footprint-guard` fails on);
	// footprint.redundant counts the reverse — a recompile the footprint
	// proves unnecessary (a performance, not correctness, defect).
	CtrFootprintChecked   = "footprint.checked"
	CtrFootprintMissed    = "footprint.missed"
	CtrFootprintRedundant = "footprint.redundant"

	// Persistent-state counters (updated concurrently by workers).
	// state.saves counts state files actually written (in place, created if
	// missing, never fsynced: the file is old, new, or rejected — one a crash
	// or power loss left torn fails its checksum and its unit runs cold);
	// state.save_unchanged counts saves elided because the bytes on disk
	// already equalled the new encoding. Their sum
	// is the save attempts that did not fail (those are state.io_error).
	// state.bytes_written sums the bytes the saves wrote.
	CtrStateLoads         = "state.loads"
	CtrStateLoadMisses    = "state.load_misses"
	CtrStateSaves         = "state.saves"
	CtrStateSaveUnchanged = "state.save_unchanged"
	CtrStateBytesWritten  = "state.bytes_written"

	// Memo files (Replay with a state directory): memos loaded with their
	// unit's state, memo files rejected (torn, foreign, checksum), memo
	// files written after the compare, saves elided because the file held
	// the bytes already, and the bytes written.
	CtrStateMemoLoads         = "state.memo_loads"
	CtrStateMemoRejected      = "state.memo_rejected"
	CtrStateMemoSaves         = "state.memo_saves"
	CtrStateMemoSaveUnchanged = "state.memo_save_unchanged"
	CtrStateMemoBytesWritten  = "state.memo_bytes_written"

	// Degradation counters: state/history I/O failures the build absorbed
	// (cold start, dropped save, dropped flight-recorder record) instead
	// of failing. Nonzero values mean the build ran degraded but correct;
	// `minibuild serve` exports them so operators can alert on them.
	CtrStateIOErrors   = "state.io_error"
	CtrHistoryIOErrors = "history.io_error"

	// history.tail_reads counts the flight-recorder appends that read the end
	// of the history's active segment: a builder's first append, and any
	// append that does not find the segment as its own last append left it
	// (history.Appender). A work counter, deterministic for a given build
	// sequence; like history.io_error it lands after the build's snapshot.
	CtrHistoryTailReads = "history.tail_reads"

	// Worker-pool counters.
	CtrWorkerBusyNS = "worker.busy_ns"

	// Shared-cache (internal/cas) counters, emitted by both the builder
	// (client side) and `minibuild serve` (server side); /metrics on a serve
	// instance exports the two merged by addition
	// (docs/ARCHITECTURE.md, docs/OBSERVABILITY.md).
	//
	// cas.hit / cas.miss count action lookups that did / did not yield a
	// verified remote object; their ratio is the shared-cache hit rate.
	// cas.verify_failed counts blobs or action entries rejected by the
	// strict byte-verify rule — every one of them is ALSO a miss (a poisoned
	// blob is never served; the unit recompiles locally).
	// cas.published counts objects published to the store after an honest
	// local compile; cas.io_error counts CAS transport/storage failures the
	// build degraded around (recompiled locally, warned, carried on).
	CtrCASHits         = "cas.hit"
	CtrCASMisses       = "cas.miss"
	CtrCASVerifyFailed = "cas.verify_failed"
	CtrCASPublished    = "cas.published"
	CtrCASIOErrors     = "cas.io_error"
	// cas.evicted counts the server's LRU evictions under its byte bound.
	CtrCASEvicted = "cas.evicted"

	// Network-adversity counters (docs/ROBUSTNESS.md, "Network adversity").
	// Client side: cas.net_error counts failed wire attempts — transport
	// errors, mid-body hangups, 5xx responses, blown deadline budgets — the
	// build degraded around; cas.retry counts re-attempts issued for
	// retryable failures (the strict taxonomy: 404/410/507 and every other
	// service verdict never burns a retry). The circuit breaker's lifecycle:
	// cas.breaker_trips counts closed/half-open → open transitions,
	// cas.breaker_probes half-open probe requests, cas.breaker_recovered
	// half-open → closed recoveries, and cas.breaker_open requests
	// fast-failed while open (each is also a miss on the fetch path — the
	// degraded build compiles locally without waiting on a dead backend).
	CtrCASNetErrors        = "cas.net_error"
	CtrCASRetries          = "cas.retry"
	CtrCASBreakerOpen      = "cas.breaker_open"
	CtrCASBreakerTrips     = "cas.breaker_trips"
	CtrCASBreakerProbes    = "cas.breaker_probes"
	CtrCASBreakerRecovered = "cas.breaker_recovered"

	// Server startup-scan counters (cas.Server over a DiskCAS):
	// cas.recovered_refs counts the blobs the startup scan accounted;
	// cas.recovered_orphans counts the temp files it swept (a publish that
	// crashed before its rename). cas.body_rejected counts over-limit
	// request bodies refused at the wire before they could balloon the
	// server.
	CtrCASRecoveredRefs    = "cas.recovered_refs"
	CtrCASRecoveredOrphans = "cas.recovered_orphans"
	CtrCASBodyRejected     = "cas.body_rejected"
)

// Counter is a monotonically updated 64-bit metric. All methods are atomic
// and safe on a nil receiver (no-ops), so unresolved counters cost nothing.
type Counter struct {
	v int64
}

// Add folds n into the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Registry is a named-counter (and named-histogram, histogram.go) table.
// Counter/Histogram resolve names under a mutex; the returned pointers are
// then update-able lock-free, so the mutex is off every hot path. The zero
// value is not usable; create with NewRegistry.
type Registry struct {
	mu sync.Mutex
	m  map[string]*Counter
	h  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*Counter), h: make(map[string]*Histogram)}
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns nil, and nil counters no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.m[name]
	if !ok {
		c = &Counter{}
		r.m[name] = c
	}
	return c
}

// Snapshot returns the current value of every counter.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.m))
	for name, c := range r.m {
		out[name] = c.Load()
	}
	return out
}

// Names returns the registered counter names, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PassCounters are the compile path's hot-path counters — the pipeline
// driver's and the frontend's — pre-resolved so that a compile updates them
// without touching the registry.
type PassCounters struct {
	Runs, Dormant, Skipped, Replayed, RunNS *Counter
	Hashes, HashNS                          *Counter
	FuncsPruned                             *Counter
	// The frontend's work (frontend.* counters), which the compiler adds.
	FuncsLowered, FuncsReused, BytesLexed *Counter
	// Code generation's work (codegen.* counters), which the driver adds.
	CodeCompiled, CodeReused *Counter
	// Soundness-sentinel totals (audit.* counters).
	Audited, Unsound *Counter
	// Decision-provenance buckets (decision.* counters).
	DecCold, DecNotDormant, DecFPMismatch, DecPolicy, DecQuarantined *Counter
}

// Pass resolves the standard pipeline counters (nil-safe: a nil registry
// yields nil, which disables pipeline counting).
func (r *Registry) Pass() *PassCounters {
	if r == nil {
		return nil
	}
	return &PassCounters{
		Runs:           r.Counter(CtrPassRuns),
		Dormant:        r.Counter(CtrPassDormant),
		Skipped:        r.Counter(CtrPassSkipped),
		Replayed:       r.Counter(CtrPassReplayed),
		RunNS:          r.Counter(CtrPassRunNS),
		Hashes:         r.Counter(CtrHashes),
		HashNS:         r.Counter(CtrHashNS),
		FuncsPruned:    r.Counter(CtrFuncsPruned),
		FuncsLowered:   r.Counter(CtrFuncsLowered),
		FuncsReused:    r.Counter(CtrFuncsReused),
		BytesLexed:     r.Counter(CtrBytesLexed),
		CodeCompiled:   r.Counter(CtrCodeCompiled),
		CodeReused:     r.Counter(CtrCodeReused),
		Audited:        r.Counter(CtrAuditSampled),
		Unsound:        r.Counter(CtrAuditUnsound),
		DecCold:        r.Counter(CtrDecCold),
		DecNotDormant:  r.Counter(CtrDecNotDormant),
		DecFPMismatch:  r.Counter(CtrDecFPMismatch),
		DecPolicy:      r.Counter(CtrDecPolicy),
		DecQuarantined: r.Counter(CtrDecQuarantined),
	}
}

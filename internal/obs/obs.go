// Package obs is the zero-dependency observability layer threaded through
// the whole stack: structured spans for every pipeline stage and pass slot,
// a lock-cheap counters registry safe under the build system's worker pool,
// and two exporters — a Chrome trace_event JSON file (chrome.go) and a
// machine-readable metrics block (metrics.go).
//
// Design rules:
//
//   - Everything is nil-safe. A nil *Tracer, *Counter, or *Sink is a no-op,
//     so instrumented code carries no "is tracing on?" branches beyond the
//     nil checks the calls themselves compile to. Disabled observability
//     costs a few predictable branches per unit, not per event.
//
//   - Hot paths touch atomics, not maps. The Registry hands out *Counter
//     pointers once at setup; after that an update is a single atomic add.
//     Spans are coarser (one per pipeline slot, not per function) and land
//     in the tracer under one short mutex append.
//
//   - Span timestamps are relative to an epoch, not absolute wall-clock:
//     the owning Tracer's creation time when tracing, or the local
//     operation start when a component records spans without a tracer.
package obs

import (
	"sync"
	"time"
)

// Span categories.
const (
	// CatBuild marks whole-build and link spans emitted by the build system.
	CatBuild = "build"
	// CatUnit marks one unit's end-to-end compilation.
	CatUnit = "unit"
	// CatStage marks a per-unit compilation stage (frontend/passes/codegen).
	CatStage = "stage"
	// CatPass marks one pipeline slot's execution within a unit.
	CatPass = "pass"
)

// Span is one timed interval with optional pass-slot detail. The fixed
// fields keep recording allocation-free; exporters map them to trace args.
type Span struct {
	// Name identifies the interval ("frontend", "pass:gvn", "unit main.mc").
	Name string
	// Cat is one of the Cat* categories.
	Cat string
	// Unit is the owning compilation unit ("" for build-level spans).
	Unit string
	// TID is the logical thread: 0 for the build orchestrator, worker
	// slot + 1 for compile workers.
	TID int
	// Start is nanoseconds since the epoch (see package doc); Dur is the
	// span length in nanoseconds.
	Start, Dur int64

	// Pass-slot detail, populated for CatPass spans only.

	// Slot is the pipeline slot index (-1 for non-pass spans).
	Slot int
	// Runs/Skipped/Dormant count pass executions within the span, Replayed
	// the ones a segment replay avoided.
	Runs, Skipped, Dormant, Replayed int
	// Hashes counts fingerprint computations attributed to the span;
	// HashNS is their total time.
	Hashes int
	HashNS int64
}

// Tracer collects spans from concurrent workers. The zero value is not
// usable; create one with NewTracer. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so a nil *Tracer is the
// "tracing disabled" state.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer; its creation time is the trace epoch.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Now returns nanoseconds since the trace epoch (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Emit records one span (no-op on a nil tracer).
func (t *Tracer) Emit(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len reports the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Sink is the per-worker observability context handed to a compiler: the
// shared tracer, the pre-resolved hot-path pass counters, and the worker's
// logical thread id. A nil *Sink (or nil fields) disables the corresponding
// recording.
type Sink struct {
	// Tracer receives spans (nil: spans are kept only in unit results).
	Tracer *Tracer
	// Pass receives pipeline counter updates (nil: none recorded).
	Pass *PassCounters
	// TID is this worker's logical thread id for spans.
	TID int
}

// Trace returns the sink's tracer (nil-safe).
func (s *Sink) Trace() *Tracer {
	if s == nil {
		return nil
	}
	return s.Tracer
}

// PassCtrs returns the sink's pass counters (nil-safe).
func (s *Sink) PassCtrs() *PassCounters {
	if s == nil {
		return nil
	}
	return s.Pass
}

// ThreadID returns the sink's logical thread id (0 on nil).
func (s *Sink) ThreadID() int {
	if s == nil {
		return 0
	}
	return s.TID
}

package obs

// The scheduling timeline: a structured per-build event log of what the
// worker pool actually did — one event per unit that occupied a worker, with
// enqueue/start/end timestamps, the worker slot that ran it, its outcome, and
// the per-stage time split. The build system assembles one Timeline per Build
// call and the flight recorder persists it as it is (internal/history; the
// JSON keys are short because a history file is bounded by bytes), so
// `minibuild profile` and the serve /dash page can reconstruct the schedule —
// and its critical path (critpath.go) — long after the process exited.
//
// Clock discipline: every timestamp is nanoseconds since the build's
// monotonic epoch, derived exclusively through time.Since of one time.Time
// captured at build start. Wall-clock readings (time.Now().UnixNano() at
// two points, subtracted) must never flow into these fields: an NTP step
// between two readings would fabricate negative or wildly skewed
// durations in the flight recorder. Validate enforces the resulting
// ordering invariants; the flight recorder's single wall-clock field
// (Record.TimeUnixMS) exists only to label records for humans and is
// never used in subtraction.

import (
	"fmt"
	"sort"
)

// Unit outcomes recorded in the timeline.
const (
	// OutcomeCompile: the unit compiled normally on a worker.
	OutcomeCompile = "compile"
	// OutcomePanic: the unit's compile panicked and was retried on the
	// stateless fallback (docs/ROBUSTNESS.md).
	OutcomePanic = "panic"
	// OutcomeQuarantine: the unit compiled through its quarantine's
	// stateless fallback.
	OutcomeQuarantine = "quarantine"
	// OutcomeError: the unit's compile failed with a diagnostic. The event
	// still records the time the failing attempt consumed.
	OutcomeError = "error"
	// OutcomeRemote: the unit was served from the shared content-addressed
	// cache (internal/cas) instead of compiling. Remote events are
	// scheduled — the fetch and verify occupy a worker slot — but carry no
	// stage split (nothing compiled).
	OutcomeRemote = "remote"
)

// UnitEvent is one unit's scheduling record within a build. All times are
// nanoseconds since the build's monotonic epoch (the Builder captures one
// time.Time at build start and derives every field via time.Since).
type UnitEvent struct {
	// Unit is the unit name.
	Unit string `json:"u"`
	// Worker is the worker slot that ran the unit.
	Worker int `json:"w"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"o"`
	// EnqueueNS is when the unit's compile job became ready for a worker.
	EnqueueNS int64 `json:"q,omitempty"`
	// StartNS / EndNS bound the unit's compile.
	StartNS int64 `json:"s,omitempty"`
	EndNS   int64 `json:"e,omitempty"`
	// Per-stage split of the compile (zero for remote fetches and fullcache
	// mode).
	FrontendNS int64 `json:"fe,omitempty"`
	PassesNS   int64 `json:"pa,omitempty"`
	CodegenNS  int64 `json:"cg,omitempty"`
}

// DurNS is the event's own duration.
func (e *UnitEvent) DurNS() int64 { return e.EndNS - e.StartNS }

// Timeline is one build's scheduling event log.
type Timeline struct {
	// Workers is the pool's worker-slot count.
	Workers int `json:"workers"`
	// WallNS is the whole build's wall time (partition + compile + link).
	WallNS int64 `json:"wall_ns"`
	// CompileStartNS / CompileWallNS bound the parallel compile phase
	// within the build.
	CompileStartNS int64 `json:"compile_start_ns,omitempty"`
	CompileWallNS  int64 `json:"compile_wall_ns,omitempty"`
	// LinkNS is the link stage's duration (it follows the compile phase).
	LinkNS int64 `json:"link_ns,omitempty"`
	// Events is in unit-name order (scheduling must not leak into the
	// recorded artifact's shape) and has the units that occupied a worker
	// only. A unit served from the object cache has no event: the partition
	// stage it was decided in ends at CompileStartNS, and the latency of each
	// decision is in the builder's unit.skip_decision_ns histogram
	// (HistSkipDecisionNS).
	Events []UnitEvent `json:"events"`
}

// Validate checks the timeline's ordering invariants: events sorted by
// unit name, every timestamp non-negative and ordered enqueue ≤ start ≤
// end, every event within the compile phase and on a valid worker slot. A
// violation means a recording bug (most likely a wall-clock reading leaking
// into what must be monotonic deltas).
func (t *Timeline) Validate() error {
	if t.Workers < 1 {
		return fmt.Errorf("timeline: %d workers", t.Workers)
	}
	if t.WallNS < 0 || t.CompileWallNS < 0 || t.LinkNS < 0 || t.CompileStartNS < 0 {
		return fmt.Errorf("timeline: negative phase duration (wall=%d compile=%d link=%d)",
			t.WallNS, t.CompileWallNS, t.LinkNS)
	}
	if !sort.SliceIsSorted(t.Events, func(i, j int) bool {
		return t.Events[i].Unit < t.Events[j].Unit
	}) {
		return fmt.Errorf("timeline: events not in unit order")
	}
	for i := range t.Events {
		e := &t.Events[i]
		if e.Unit == "" {
			return fmt.Errorf("timeline: event %d has no unit", i)
		}
		if e.EnqueueNS < 0 || e.StartNS < e.EnqueueNS || e.EndNS < e.StartNS {
			return fmt.Errorf("timeline: %s: non-monotonic times enqueue=%d start=%d end=%d",
				e.Unit, e.EnqueueNS, e.StartNS, e.EndNS)
		}
		if e.Worker < 0 || e.Worker >= t.Workers {
			return fmt.Errorf("timeline: %s: worker %d out of range [0,%d)", e.Unit, e.Worker, t.Workers)
		}
		if end := t.CompileStartNS + t.CompileWallNS; t.CompileWallNS > 0 && e.EndNS > end {
			return fmt.Errorf("timeline: %s: ends at %dns, past the compile phase end %dns", e.Unit, e.EndNS, end)
		}
		if e.FrontendNS < 0 || e.PassesNS < 0 || e.CodegenNS < 0 {
			return fmt.Errorf("timeline: %s: negative stage time", e.Unit)
		}
	}
	return nil
}

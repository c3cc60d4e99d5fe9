package obs

// The scheduling timeline: a structured per-build event log of what the
// worker pool actually did — one event per unit that occupied a worker, with
// start/end timestamps, the worker slot that ran it, its outcome, and the
// per-stage time split. The build system assembles one Timeline per Build
// call and the flight recorder persists it as it is (internal/history; the
// JSON keys are short because a history file is bounded by bytes), so
// `minibuild profile` and the serve /dash page can reconstruct the schedule —
// and its critical path (critpath.go) — long after the process exited. The
// timeline holds only what the record does not: the worker count and the
// build, compile and link times are the record's, and the functions here take
// them as arguments.
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
	// StartNS / EndNS bound the unit's compile. Every job is ready when the
	// compile phase starts (CompileStartNS): file-level units have no
	// inter-unit dependencies.
	StartNS int64 `json:"s,omitempty"`
	EndNS   int64 `json:"e,omitempty"`
	// Per-stage split of the compile (zero for remote fetches).
	FrontendNS int64 `json:"fe,omitempty"`
	PassesNS   int64 `json:"pa,omitempty"`
	CodegenNS  int64 `json:"cg,omitempty"`
}

// DurNS is the event's own duration.
func (e *UnitEvent) DurNS() int64 { return e.EndNS - e.StartNS }

// Timeline is one build's scheduling event log. Older records also carry a
// phase envelope (workers, wall_ns, compile_wall_ns, link_ns: copies of the
// record's own fields) and each event's enqueue time ("q": the compile
// phase's start, for every job); decoding ignores them.
type Timeline struct {
	// CompileStartNS is when the compile phase began within the build: the
	// partition stage — every cache decision — ends there.
	CompileStartNS int64 `json:"compile_start_ns,omitempty"`
	// Events is in unit-name order (scheduling must not leak into the
	// recorded artifact's shape) and has the units that occupied a worker
	// only. A unit served from the object cache has no event: the partition
	// stage it was decided in ends at CompileStartNS, and the latency of each
	// decision is in the builder's unit.skip_decision_ns histogram
	// (HistSkipDecisionNS).
	Events []UnitEvent `json:"events"`
}

// BusyNS is the time the events occupied their workers, summed over all of
// them: a worker's busy time is the sum of its events.
func (t *Timeline) BusyNS() int64 {
	var busy int64
	for i := range t.Events {
		busy += t.Events[i].DurNS()
	}
	return busy
}

// Validate checks the timeline's ordering invariants against the build's
// worker count and its build, compile and link times (the record's Workers,
// TotalNS, CompileNS and LinkNS): events sorted by unit name, every timestamp
// non-negative and ordered compile start ≤ start ≤ end, every event within
// the compile phase and on a valid worker slot. A violation means a recording
// bug (most likely a wall-clock reading leaking into what must be monotonic
// deltas).
func (t *Timeline) Validate(workers int, wallNS, compileNS, linkNS int64) error {
	if workers < 1 {
		return fmt.Errorf("timeline: %d workers", workers)
	}
	if wallNS < 0 || compileNS < 0 || linkNS < 0 || t.CompileStartNS < 0 {
		return fmt.Errorf("timeline: negative phase duration (wall=%d compile=%d link=%d)",
			wallNS, compileNS, linkNS)
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
		if e.StartNS < t.CompileStartNS || e.EndNS < e.StartNS {
			return fmt.Errorf("timeline: %s: non-monotonic times compile start=%d start=%d end=%d",
				e.Unit, t.CompileStartNS, e.StartNS, e.EndNS)
		}
		if e.Worker < 0 || e.Worker >= workers {
			return fmt.Errorf("timeline: %s: worker %d out of range [0,%d)", e.Unit, e.Worker, workers)
		}
		if end := t.CompileStartNS + compileNS; compileNS > 0 && e.EndNS > end {
			return fmt.Errorf("timeline: %s: ends at %dns, past the compile phase end %dns", e.Unit, e.EndNS, end)
		}
		if e.FrontendNS < 0 || e.PassesNS < 0 || e.CodegenNS < 0 {
			return fmt.Errorf("timeline: %s: negative stage time", e.Unit)
		}
	}
	return nil
}

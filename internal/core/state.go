// Package core implements the paper's contribution: a *stateful* pass
// manager that persists, per function and per pipeline slot, whether the
// pass was dormant (ran without modifying the IR) together with a
// fingerprint of the IR it saw — and uses those records to skip dormant
// passes in subsequent incremental compilations of the same unit.
//
// Soundness argument (paper §4): passes are deterministic pure functions of
// their input IR (enforced for skipping eligibility by the FunctionLocal
// registry attribute and pinned by determinism tests), so
//
//	same input fingerprint  ∧  dormant last time  ⇒  dormant this time,
//
// and a dormant pass leaves the IR unchanged — meaning the fingerprint
// entering the next slot is the *same* fingerprint, so a run of consecutive
// dormant passes costs one hash instead of N pass executions. Module passes
// are guarded by a module-level fingerprint; any module change re-runs them.
package core

import (
	"fmt"

	"statefulcc/internal/fingerprint"
	"statefulcc/internal/footprint"
)

// StateVersion identifies the on-disk/state-record format and the compiler
// revision. Bumping it invalidates all previous state — the paper's
// compiler-upgrade safety rule. Version 4: the hierarchical fingerprint
// algorithm changed function hash values, so older persisted dormancy
// records must not be trusted against the new hashes.
const StateVersion = 4

// Record is one dormancy observation: the fingerprint of the IR a pass
// instance saw for a function and whether the pass changed it — the
// paper's "a hash and a bit". A changed record never satisfies a skip, so
// its hash is not kept.
type Record struct {
	InputHash uint64
	Changed   bool
}

// Quarantine reasons — why a unit's (or pass's) cached execution state is
// no longer trusted. See docs/ROBUSTNESS.md for the state machine.
const (
	// QuarantinePanic: a pass panicked while compiling the unit. The whole
	// unit's state is suspect; it compiles stateless until lifted.
	QuarantinePanic = "panic"
	// QuarantineUnsound: the soundness sentinel caught an unsound skip —
	// a pass that was recorded dormant on this fingerprint changed the IR
	// when audited. The offending (unit, pass) pair stops skipping.
	QuarantineUnsound = "unsound-skip"
)

// QuarantineCleanTarget is the number of consecutive clean compiles of a
// quarantined unit required before the quarantine lifts and the unit
// returns to normal stateful operation (cold — quarantine discards trust
// in the old records, not just skips).
const QuarantineCleanTarget = 3

// Quarantine marks a unit whose execution state is distrusted. It rides in
// the persisted UnitState so the distrust survives processes.
type Quarantine struct {
	// Reason is one of the Quarantine* constants.
	Reason string
	// Clean counts consecutive clean compiles since engagement; at
	// QuarantineCleanTarget the quarantine lifts.
	Clean int
	// Passes lists the quarantined pass names (sorted, deduplicated).
	// Empty means the whole unit is quarantined: it compiles through the
	// stateless fallback and none of its records are consulted.
	Passes []string
}

// Whole reports whether the entire unit is quarantined (as opposed to
// specific passes only).
func (q *Quarantine) Whole() bool { return q != nil && len(q.Passes) == 0 }

// Covers reports whether the named pass is quarantined (always true for a
// whole-unit quarantine).
func (q *Quarantine) Covers(pass string) bool {
	if q == nil {
		return false
	}
	if len(q.Passes) == 0 {
		return true
	}
	for _, p := range q.Passes {
		if p == pass {
			return true
		}
	}
	return false
}

// AddPass quarantines one more pass, keeping Passes sorted and unique, and
// resets the clean-build count (new evidence of distrust restarts the
// probation window). Reports whether the pass was newly added.
func (q *Quarantine) AddPass(pass string) bool {
	q.Clean = 0
	for i, p := range q.Passes {
		if p == pass {
			return false
		}
		if p > pass {
			q.Passes = append(q.Passes, "")
			copy(q.Passes[i+1:], q.Passes[i:])
			q.Passes[i] = pass
			return true
		}
	}
	q.Passes = append(q.Passes, pass)
	return true
}

// FuncState holds one function's records, indexed by pipeline slot.
type FuncState struct {
	// Slots[i] corresponds to pipeline entry i; a zero-valued record (hash
	// 0, never observed) means "no information".
	Slots []Record
	// Seen marks slots that hold a real observation.
	Seen []bool

	// memo is 1 + the index of the function's first entry in its unit's
	// segment memo (replay.go), 0 for none; code is 1 + the function's
	// index in the memo's object, whose code was generated from IR keyed
	// codeKey, 0 for none (code.go). None of the three is persisted.
	memo, code int32
	codeKey    uint64
}

func newFuncState(n int) *FuncState {
	return &FuncState{Slots: make([]Record, n), Seen: make([]bool, n)}
}

// UnitState is the persistent compiler state for one compilation unit —
// the artifact the paper adds next to the build system's own metadata.
type UnitState struct {
	// Unit is the source unit this state describes.
	Unit string
	// PipelineHash guards against pipeline/config changes: a different
	// pipeline invalidates all records.
	PipelineHash uint64
	// Funcs maps function name to its per-slot records.
	Funcs map[string]*FuncState
	// ModuleSlots holds records for module passes, indexed by pipeline slot
	// (entries for function-pass slots are unused).
	ModuleSlots []Record
	// ModuleSeen marks module slots with real observations.
	ModuleSeen []bool
	// Quarantine, when non-nil, marks this unit's state as distrusted
	// (a pass panicked, or the soundness sentinel caught an unsound skip).
	Quarantine *Quarantine
	// Footprint, when non-nil, is the dependency footprint recorded during
	// the compile that produced this state: the ground-truth read set the
	// build system cross-checks declared invalidation against
	// (internal/footprint), persisted on the state file.
	Footprint *footprint.Record

	// memo is the unit's segment outputs (replay.go): in memory only, so a
	// state decoded from its file has none.
	memo memo
}

// Quarantined reports whether the named pass may not be skipped for this
// unit. Nil-safe.
func (s *UnitState) Quarantined(pass string) bool {
	return s != nil && s.Quarantine.Covers(pass)
}

// NewUnitState creates empty state for a unit compiled with the given
// pipeline.
func NewUnitState(unit string, pipeline []string) *UnitState {
	return &UnitState{
		Unit:         unit,
		PipelineHash: PipelineHash(pipeline),
		Funcs:        make(map[string]*FuncState),
		ModuleSlots:  make([]Record, len(pipeline)),
		ModuleSeen:   make([]bool, len(pipeline)),
	}
}

// PipelineHash fingerprints the pipeline configuration together with the
// state format version.
func PipelineHash(pipeline []string) uint64 {
	h := fingerprint.New()
	h.Uint64(StateVersion)
	h.Uint64(fingerprint.Strings(pipeline))
	return h.Sum()
}

// Compatible reports whether the state can be used for the given pipeline.
func (s *UnitState) Compatible(pipeline []string) bool {
	return s != nil && s.PipelineHash == PipelineHash(pipeline) &&
		len(s.ModuleSlots) == len(pipeline)
}

// funcState returns (creating if needed) the record block for a function.
func (s *UnitState) funcState(name string, slots int) *FuncState {
	fs, ok := s.Funcs[name]
	if !ok || len(fs.Slots) != slots {
		fs = newFuncState(slots)
		s.Funcs[name] = fs
	}
	return fs
}

// Prune drops records for functions not in the given set (deleted
// functions), keeping state size proportional to the live unit.
func (s *UnitState) Prune(live map[string]bool) {
	for name := range s.Funcs {
		if !live[name] {
			delete(s.Funcs, name)
		}
	}
}

// RecordCount returns the total number of (function, slot) observations,
// for state-size reporting.
func (s *UnitState) RecordCount() int {
	n := 0
	for _, fs := range s.Funcs {
		for _, seen := range fs.Seen {
			if seen {
				n++
			}
		}
	}
	for _, seen := range s.ModuleSeen {
		if seen {
			n++
		}
	}
	return n
}

// String summarizes the state for debugging. Its size on disk is
// internal/state.FileSize.
func (s *UnitState) String() string {
	return fmt.Sprintf("state(%s: %d funcs, %d records)", s.Unit, len(s.Funcs), s.RecordCount())
}

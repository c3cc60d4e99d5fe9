package core

// Compilation statistics: the measurements behind the paper's motivation
// figures (dormant fraction, dormancy persistence) and its evaluation
// (per-pass savings, skip counts, hashing overhead).

import (
	"fmt"
	"strings"
)

// Decision reasons — why a pass execution ran or was skipped. These are
// the provenance taxonomy the build flight recorder (internal/history) and
// `minibuild explain` report; docs/OBSERVABILITY.md documents each.
const (
	// ReasonSkippedDormant: a fingerprint-matched dormancy record allowed
	// the execution to be skipped.
	ReasonSkippedDormant = "skipped-dormant"
	// ReasonReplayed: the function's segment input matched the resident
	// builder's memo, so the slot took its part of the recorded segment
	// output (replay.go).
	ReasonReplayed = "replayed"
	// ReasonColdState: no prior observation existed for this slot.
	ReasonColdState = "cold-state"
	// ReasonNotDormant: the record says the pass changed the IR last time.
	ReasonNotDormant = "not-dormant-last-time"
	// ReasonFingerprintMismatch: a dormant record existed but the input IR
	// fingerprint no longer matches it.
	ReasonFingerprintMismatch = "fingerprint-mismatch"
	// ReasonPolicyDisabled: the policy (stateless) or the pass's own
	// eligibility (not function-local) rules out skipping entirely.
	ReasonPolicyDisabled = "policy-disabled"
	// ReasonQuarantined: the (unit, pass) pair is quarantined — skipping is
	// suspended until enough clean builds restore trust.
	ReasonQuarantined = "quarantined"
	// ReasonAuditUnsound: the soundness sentinel executed a would-be skip
	// and caught the pass changing the IR — the skip would have been
	// unsound. The execution that caught it is charged here.
	ReasonAuditUnsound = "audit-unsound"
	// ReasonRan is the generic fallback when no finer reason was recorded.
	ReasonRan = "ran"
)

// SlotStats aggregates one pipeline slot's behaviour over the functions (or
// the module) it processed. It is also a row of the flight recorder's
// decision table (internal/history): the row's slot is its index, its pass
// name is in the record's Pipeline and its reason is Reason, so none of them
// is written. The JSON keys are the ones records have always stored.
type SlotStats struct {
	// Pass names the slot's pass only where no pipeline does: in ByPass's
	// aggregates, and in a row of an older record whose Pipeline names
	// another pass for the slot. A Stats names its slots in Stats.Pipeline.
	Pass string `json:"pass,omitempty"`
	// Module is true for module-pass slots.
	Module bool `json:"module,omitempty"`
	// Runs counts actual pass executions.
	Runs int `json:"runs,omitempty"`
	// Dormant counts executions that reported no change.
	Dormant int `json:"dormant,omitempty"`
	// Skipped counts executions avoided by dormancy records.
	Skipped int `json:"skipped,omitempty"`
	// Replayed counts executions avoided by a replay: the function took its
	// recorded segment output (replay.go). For a function slot,
	// Runs + Skipped + Replayed is the number of functions entering it.
	Replayed int `json:"replayed,omitempty"`

	// Decision provenance: every execution counted in Runs has exactly one
	// of these reasons (Skipped executions are all ReasonSkippedDormant).
	// See the Reason* constants.

	// Cold counts runs with no prior observation for the slot.
	Cold int `json:"cold,omitempty"`
	// NotDormant counts runs whose record said "changed last time".
	NotDormant int `json:"not_dormant,omitempty"`
	// FPMismatch counts runs whose dormant record failed the fingerprint
	// guard (stateful policy only).
	FPMismatch int `json:"fingerprint_mismatch,omitempty"`
	// Policy counts runs where skipping was ruled out by policy or pass
	// eligibility (stateless mode, or non-function-local function passes).
	Policy int `json:"policy_disabled,omitempty"`
	// Quarantined counts runs forced by a (unit, pass) quarantine.
	Quarantined int `json:"quarantined,omitempty"`

	// Soundness-sentinel accounting (see docs/ROBUSTNESS.md).

	// Audited counts would-be skips the sentinel executed anyway.
	Audited int `json:"audited,omitempty"`
	// Unsound counts audited executions whose output fingerprint differed
	// from the input — unsound skips the sentinel caught (each engages a
	// quarantine and is charged as a run with ReasonAuditUnsound).
	Unsound int `json:"unsound,omitempty"`

	// RunNS is the total time spent executing the pass.
	RunNS int64 `json:"run_ns,omitempty"`
}

// Reason returns the slot's dominant decision reason — the reason covering
// the most executions, with skips and then replays breaking ties (they are
// the interesting outcomes), then the run reasons in guard order.
// ReasonRan covers slots that executed without finer provenance; an idle
// slot reports "".
func (sl *SlotStats) Reason() string {
	best, n := "", 0
	for _, c := range []struct {
		reason string
		count  int
	}{
		{ReasonSkippedDormant, sl.Skipped},
		{ReasonReplayed, sl.Replayed},
		{ReasonAuditUnsound, sl.Unsound},
		{ReasonQuarantined, sl.Quarantined},
		{ReasonFingerprintMismatch, sl.FPMismatch},
		{ReasonNotDormant, sl.NotDormant},
		{ReasonColdState, sl.Cold},
		{ReasonPolicyDisabled, sl.Policy},
	} {
		if c.count > n {
			best, n = c.reason, c.count
		}
	}
	if best == "" && sl.Runs > 0 {
		return ReasonRan
	}
	return best
}

// Stats aggregates one compilation.
type Stats struct {
	// Pipeline names the pass of each slot; it is the driver's, shared by
	// every Stats the driver returns, and never written to.
	Pipeline []string
	// Slots has one entry per pipeline slot.
	Slots []SlotStats
	// HashNS is the total time spent fingerprinting.
	HashNS int64
	// Hashes counts fingerprint computations.
	Hashes int
	// Functions is the number of functions entering the pipeline.
	Functions int
	// Pruned is the number of functions removed before the first pass
	// (passes.PruneDeadFuncs): never called, they would only be optimized
	// for deadfunc to delete.
	Pruned int
	// FrontAudited counts the frontend reuses the soundness sentinel
	// sampled: the function was lowered anew and its IR checked against the
	// memo's (frontend.go). FrontUnsound counts those whose IR differed.
	FrontAudited, FrontUnsound int
	// CodeAudited counts the code reuses the sentinel sampled: the
	// function's code was generated anew and its digest checked against the
	// reused code's (code.go). CodeUnsound counts those whose digest
	// differed.
	CodeAudited, CodeUnsound int
}

// Totals sums runs/dormant/skips across slots.
func (s *Stats) Totals() (runs, dormant, skipped int) {
	for _, sl := range s.Slots {
		runs += sl.Runs
		dormant += sl.Dormant
		skipped += sl.Skipped
	}
	return
}

// SentinelTotals sums the soundness sentinel's audited executions and the
// unsound skips it caught across slots.
func (s *Stats) SentinelTotals() (audited, unsound int) {
	for _, sl := range s.Slots {
		audited += sl.Audited
		unsound += sl.Unsound
	}
	return audited + s.FrontAudited + s.CodeAudited, unsound + s.FrontUnsound + s.CodeUnsound
}

// PassTimeNS is the total time spent inside passes.
func (s *Stats) PassTimeNS() int64 {
	var t int64
	for _, sl := range s.Slots {
		t += sl.RunNS
	}
	return t
}

// DormantFraction is the fraction of pass executions (runs + skips) that
// did or would have done nothing — the paper's motivation metric.
func (s *Stats) DormantFraction() float64 {
	runs, dormant, skipped := s.Totals()
	total := runs + skipped
	if total == 0 {
		return 0
	}
	// Skipped executions were dormant by construction.
	return float64(dormant+skipped) / float64(total)
}

// Merge accumulates other into s (slot-wise; pipelines must match).
func (s *Stats) Merge(other *Stats) {
	if len(s.Slots) == 0 {
		s.Pipeline = other.Pipeline
		s.Slots = make([]SlotStats, len(other.Slots))
		for i := range other.Slots {
			s.Slots[i].Module = other.Slots[i].Module
		}
	}
	for i := range other.Slots {
		if i >= len(s.Slots) {
			break
		}
		s.Slots[i].add(&other.Slots[i])
	}
	s.HashNS += other.HashNS
	s.Hashes += other.Hashes
	s.Functions += other.Functions
	s.Pruned += other.Pruned
	s.FrontAudited += other.FrontAudited
	s.FrontUnsound += other.FrontUnsound
	s.CodeAudited += other.CodeAudited
	s.CodeUnsound += other.CodeUnsound
}

// ByPass aggregates slot stats by pass name (a pass can appear at several
// pipeline slots).
func (s *Stats) ByPass() map[string]SlotStats {
	out := make(map[string]SlotStats)
	for i := range s.Slots {
		sl, pass := &s.Slots[i], s.Pipeline[i]
		agg := out[pass]
		agg.Pass = pass
		agg.Module = sl.Module
		agg.add(sl)
		out[pass] = agg
	}
	return out
}

// add folds o's counts and time into sl (Pass and Module are left alone).
func (sl *SlotStats) add(o *SlotStats) {
	sl.Runs += o.Runs
	sl.Dormant += o.Dormant
	sl.Skipped += o.Skipped
	sl.Replayed += o.Replayed
	sl.RunNS += o.RunNS
	sl.Cold += o.Cold
	sl.NotDormant += o.NotDormant
	sl.FPMismatch += o.FPMismatch
	sl.Policy += o.Policy
	sl.Quarantined += o.Quarantined
	sl.Audited += o.Audited
	sl.Unsound += o.Unsound
}

// String renders a compact table for logs and the minicc -stats flag.
func (s *Stats) String() string {
	var sb strings.Builder
	runs, dormant, skipped := s.Totals()
	fmt.Fprintf(&sb, "pipeline: %d funcs (%d pruned), %d runs (%d dormant), %d skipped, dormant-fraction %.1f%%\n",
		s.Functions, s.Pruned, runs, dormant, skipped, 100*s.DormantFraction())
	fmt.Fprintf(&sb, "pass time %.3fms, hashing %.3fms (%d hashes)\n",
		float64(s.PassTimeNS())/1e6, float64(s.HashNS)/1e6, s.Hashes)
	for i, sl := range s.Slots {
		fmt.Fprintf(&sb, "  [%2d] %-12s runs=%-4d dormant=%-4d skipped=%-4d t=%.3fms\n",
			i, s.Pipeline[i], sl.Runs, sl.Dormant, sl.Skipped, float64(sl.RunNS)/1e6)
	}
	return sb.String()
}

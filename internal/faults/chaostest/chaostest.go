// Package chaostest holds the shared machinery of the fault walks: the
// crash/chaos suites over the filesystem (buildsys, history, state, cas)
// and the partition battery over the wire (cas). It enumerates fault
// points from a recorded clean run and checks that each replayed point
// fired; for the filesystem it also builds canonical call identities that
// survive fresh temp directories and the rule that replays exactly one
// fault at one point.
//
// The harness pattern (see docs/ROBUSTNESS.md):
//
//  1. Run the workload once over a recording injector (no rules). Every
//     logged call is an injectable fault point — the enumeration comes
//     from observation, not a hand-kept list.
//  2. For each point, re-run the workload in a fresh directory with an
//     injector that fails exactly that call (and, for crash faults,
//     everything after it), then assert the degradation invariant.
//  3. Assert coverage: every walked run must report its fault actually
//     fired (Injected non-empty), or the enumeration and the replay have
//     drifted and the suite fails loudly.
package chaostest

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/faults"
	"statefulcc/internal/vfs"
)

// Canon builds the canonicalizer the suites install with vfs.WithCanon:
// paths under root become root-relative (so fault points recorded in one
// t.TempDir replay in another), and a basename matching one of the
// temp-file patterns folds into the pattern itself (so randomized
// CreateTemp names share one stable identity). Idempotent.
func Canon(root string, tempPatterns ...string) func(string) string {
	return func(path string) string {
		if rel, err := filepath.Rel(root, path); err == nil && rel != ".." &&
			!strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			path = rel
		}
		path = filepath.Clean(path)
		dir, base := filepath.Split(path)
		for _, pat := range tempPatterns {
			if ok, _ := filepath.Match(pat, base); ok && base != pat {
				return filepath.Join(dir, pat)
			}
		}
		return path
	}
}

// Points converts a recorded call log into the fault-point enumeration:
// the distinct calls, in first-observation order. (A single clean run
// never logs the same (op, path, n) twice; deduping keeps the walk
// well-defined if a recording is ever concatenated.)
func Points(calls []faults.Call) []faults.Call {
	seen := make(map[faults.Call]bool, len(calls))
	out := make([]faults.Call, 0, len(calls))
	for _, c := range calls {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// RuleFor builds the rule that injects kind at exactly point p: same op,
// the canonical path as an anchored glob, and the point's occurrence
// index as the rule's Nth. (Canonical temp-class paths contain the glob
// metacharacter '*' and match their whole class, which is exactly the
// identity they replay under.)
func RuleFor(p faults.Call, kind vfs.Fault) vfs.Rule {
	return vfs.Rule{Op: p.Op, Path: p.Path, Nth: p.N, Kind: kind}
}

// OpsCovered tallies fault points per operation — the suites assert the
// workload actually exercises the fault space (writes, renames, …) rather
// than silently recording nothing.
func OpsCovered(points []faults.Call) map[faults.Op]int {
	out := make(map[faults.Op]int)
	for _, p := range points {
		out[p.Op]++
	}
	return out
}

// AssertFired fails the test unless the walked run injected at least one
// fault — the harness's own coverage check: a recorded point that no
// longer fires means enumeration and replay have drifted.
func AssertFired(t *testing.T, log *faults.Log, p faults.Call) {
	t.Helper()
	if len(log.Injected()) == 0 {
		t.Fatalf("fault point %v never fired during replay: enumeration and workload have drifted", p)
	}
}

// AssertFiredOrAbsent is AssertFired for workloads whose I/O volume is
// not perfectly reproducible (build timings embedded in flight-recorder
// records shift buffered-write chunk counts by ±1). If the fault did not
// fire, the replay's own call log decides: fewer occurrences of the
// point's (op, path) key than p.N means the point legitimately did not
// exist in this run (reported, not failed); at least p.N occurrences
// without a firing is real drift and fails. Returns whether it fired.
func AssertFiredOrAbsent(t *testing.T, log *faults.Log, p faults.Call) bool {
	t.Helper()
	if len(log.Injected()) > 0 {
		return true
	}
	occurrences := 0
	for _, c := range log.Calls() {
		if c.Op == p.Op && c.Path == p.Path {
			occurrences++
		}
	}
	if occurrences < p.N {
		t.Logf("fault point %v absent in this run (%d occurrences); covered by neighboring points", p, occurrences)
		return false
	}
	t.Fatalf("fault point %v occurred (%d ≥ %d) but never fired: enumeration and replay have drifted", p, occurrences, p.N)
	return false
}

// Name renders a point as a stable subtest name.
func Name(p faults.Call, kind vfs.Fault) string {
	return fmt.Sprintf("%s/%s", kind, pointName(p))
}

// Damages are the three ways a power loss after the close of a written
// file (vfs.FaultLost) leaves the file.
var Damages = []vfs.Damage{vfs.DamageZeroed, vfs.DamageTruncated, vfs.DamageFlipped}

// LostRule builds the rule that loses the data of the file closed at point
// p — the Close of a handle opened for writing — leaving the file as d says
// (at offset at). At any other point the rule is a crash.
func LostRule(p faults.Call, d vfs.Damage, at int) vfs.Rule {
	r := RuleFor(p, vfs.FaultLost)
	r.Damage, r.At = d, at
	return r
}

// LostName renders a power-loss point as a stable subtest name
// ("lost-zeroed/close:unit.state#3"). The close of the save that created
// the file is named for that ("lost-zeroed/create:unit.state#1"), so the
// walk tells the creating save apart from the overwrites.
func LostName(p faults.Call, d vfs.Damage, created bool) string {
	if created {
		p.Op = "create"
	}
	return fmt.Sprintf("%s-%s/%s", vfs.FaultLost, d, pointName(p))
}

func pointName(p faults.Call) string {
	return strings.ReplaceAll(p.String(), string(filepath.Separator), "|")
}

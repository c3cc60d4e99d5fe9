package cas_test

// Chaos fault walk over the shared cache's new I/O surface. The on-disk
// backend does all its I/O through the vfs seam, so the walk enumerates
// every (op, path) the publish→fetch sequence performs by recording a
// clean run, then replays the sequence with each point failing, crashing,
// or (for writes) tearing. The degradation contract under every fault:
//
//  1. both builds succeed — a CAS failure surfaces as a warning and a
//     counter, never a build error;
//  2. both linked programs are byte-identical to a stateless baseline —
//     never a wrong cache hit; and
//  3. after the fault clears, a clean publisher/consumer pair over the
//     same store directory gets full remote reuse — the store was never
//     corrupted, only degraded.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/vfs"
)

// chaosSnap is a two-unit program exercising the cross-unit link path.
func chaosSnap() project.Snapshot {
	return project.Snapshot{
		"lib.mc": []byte(`
func helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i; }
    return s;
}
`),
		"main.mc": []byte(`
extern func helper(n int) int;
func main() int {
    print("sum", helper(5));
    return helper(5);
}
`),
	}
}

// casChaosBuilder is a stateless builder over the given store — no state
// dir, so the ONLY faultable I/O in the sequence is the CAS's own.
func casChaosBuilder(t *testing.T, store cas.Store) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateless, Workers: 1, CAS: store,
	})
	if err != nil {
		t.Fatalf("builder creation must survive CAS faults: %v", err)
	}
	return b
}

// casChaosSequence runs the workload under test — builder A publishes a
// cold build into the store, then a fresh builder B builds the same
// snapshot against it — and returns both programs. Both builds must
// succeed: sources come from the in-memory snapshot, so a build error here
// means a CAS I/O fault escaped the degradation layer.
func casChaosSequence(t *testing.T, store cas.Store) (progA, progB *codegen.Program) {
	t.Helper()
	snap := chaosSnap()
	repA, err := casChaosBuilder(t, store).Build(snap)
	if err != nil {
		t.Fatalf("publisher build failed under injected CAS fault: %v", err)
	}
	repB, err := casChaosBuilder(t, store).Build(snap)
	if err != nil {
		t.Fatalf("consumer build failed under injected CAS fault: %v", err)
	}
	return repA.Program, repB.Program
}

// TestChaosCASWalk is the fault-point walk over the publish→fetch sequence.
func TestChaosCASWalk(t *testing.T) {
	snap := chaosSnap()
	base := oracletest.Reference(t, nil, snap)[0]

	// Record a clean run to enumerate the store's fault points.
	recDir := t.TempDir()
	canon := vfs.WithCanon(chaostest.Canon(recDir, cas.TempPattern))
	rec := vfs.NewFaultFS(vfs.OS, canon)
	progA, progB := casChaosSequence(t, cas.NewDiskCAS(recDir, rec))
	if base.Diff(progA) != "" || base.Diff(progB) != "" {
		t.Fatal("clean recorded run does not match the stateless baseline")
	}
	points := chaostest.Points(rec.Calls())
	if len(points) < 25 {
		t.Fatalf("recorded only %d CAS fault points; the store's vfs seam has shrunk: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpStat, vfs.OpMkdirAll, vfs.OpCreateTemp, vfs.OpOpen,
		vfs.OpRead, vfs.OpWrite, vfs.OpSync, vfs.OpClose, vfs.OpRename} {
		if cov[op] == 0 {
			t.Fatalf("sequence never performs %s; the walk is not covering the store's I/O surface (%v)", op, cov)
		}
	}
	t.Logf("walking %d CAS fault points (%d ops)", len(points), len(cov))

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS,
					vfs.WithCanon(chaostest.Canon(dir, cas.TempPattern)),
					vfs.WithRules(chaostest.RuleFor(p, kind)))
				progA, progB := casChaosSequence(t, cas.NewDiskCAS(dir, ffs))

				chaostest.AssertFiredOrAbsent(t, ffs.Log, p)

				// Invariant: byte-identical output under every fault — a
				// degraded cache recompiles, it never misbuilds.
				if d := base.Diff(progA); d != "" {
					t.Errorf("publisher output differs from the stateless baseline: %s", d)
				}
				if d := base.Diff(progB); d != "" {
					t.Errorf("consumer output differs from the stateless baseline: %s", d)
				}

				// Invariant: the store is never left corrupt. With the fault
				// cleared, a clean publisher/consumer pair over the same
				// directory reaches full remote reuse.
				clean := cas.NewDiskCAS(dir, nil)
				clean.SweepTemp() // crashed writers may leave temps; sweeping is the serve startup path
				if _, err := casChaosBuilder(t, clean).Build(snap); err != nil {
					t.Fatalf("healing build failed: %v", err)
				}
				rep, err := casChaosBuilder(t, clean).Build(snap)
				if err != nil {
					t.Fatalf("post-recovery build failed: %v", err)
				}
				if rep.UnitsRemote != len(snap) || rep.UnitsCompiled != 0 {
					t.Fatalf("post-recovery reuse: %d remote, %d compiled, want all %d remote",
						rep.UnitsRemote, rep.UnitsCompiled, len(snap))
				}
				if d := base.Diff(rep.Program); d != "" {
					t.Errorf("post-recovery output differs from the stateless baseline: %s", d)
				}
			})
		}
	}
}

// TestChaosCASTransportDegrades covers the wire client's half of the
// contract: a server failing every request costs warnings and local
// recompiles, never a build error or a wrong output.
func TestChaosCASTransportDegrades(t *testing.T) {
	snap := chaosSnap()
	base := oracletest.Reference(t, nil, snap)[0]

	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected server failure", http.StatusInternalServerError)
	}))
	defer hs.Close()

	b := casChaosBuilder(t, cas.NewHTTPCAS(hs.URL, ""))
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatalf("build failed against a broken cache server: %v", err)
	}
	if rep.UnitsCompiled != len(snap) || rep.UnitsRemote != 0 {
		t.Fatalf("broken server: %d compiled, %d remote, want all local", rep.UnitsCompiled, rep.UnitsRemote)
	}
	if d := base.Diff(rep.Program); d != "" {
		t.Fatalf("degraded build output differs from the stateless baseline: %s", d)
	}
	warned := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "cas:") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no cas warning surfaced for a failing server: %v", rep.Warnings)
	}
	if got := b.Metrics()[obs.CtrCASIOErrors]; got == 0 {
		t.Fatal("cas.io_error is zero against a failing server")
	}
}

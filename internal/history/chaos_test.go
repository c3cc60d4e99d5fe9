package history_test

// Flight-recorder chaos suite: walk every injectable I/O fault point of
// an append/rotate/load workload and prove the recorder degrades
// gracefully — a faulted append may drop its record (the recorder is
// advisory and reports the error to its caller), but it must never
// corrupt the file into mangled or fused records, never lose a record
// that was there before it, and the next clean append must fully recover.
// Fault points are enumerated by recording a clean run, not hand-kept.

import (
	"path/filepath"
	"testing"

	"statefulcc/internal/history"
	"statefulcc/internal/vfs"
	"statefulcc/internal/vfs/chaostest"
)

// chaosLimit forces rotation partway through the workload so the walk
// covers the rewrite path (createtemp/write/sync/close/rename) too.
const chaosLimit = 4

// chaosRecord builds a small distinguishable record: Workers carries the
// append index so loaded records can be matched back to what was written.
func chaosRecord(i int) *history.Record {
	return &history.Record{
		TimeUnixMS: 1700000000000 + int64(i),
		Mode:       "stateful",
		Workers:    1000 + i,
		TotalNS:    int64(i) * 1111,
		Metrics:    map[string]int64{"build.count": int64(i + 1)},
		Units:      map[string]history.UnitRecord{"u.mc": {CompileNS: int64(i)}},
	}
}

// appendWorkload appends nAppends records (tolerating per-append
// failures, as the build system does) against fsys, and holds every append
// — failed or not — to the no-loss invariant: a record that loaded before
// the append and is inside the limit still loads after it.
func appendWorkload(t *testing.T, fsys vfs.FS, path string, nAppends int) (failed int) {
	t.Helper()
	for i := 0; i < nAppends; i++ {
		before, _ := history.LoadFS(nil, path)
		if len(before) > chaosLimit-1 {
			before = before[len(before)-(chaosLimit-1):]
		}
		if err := history.AppendFS(fsys, path, chaosRecord(i), chaosLimit); err != nil {
			failed++
		}
		after, _ := history.LoadFS(nil, path)
		have := make(map[[2]int]bool, len(after))
		for _, r := range after {
			have[[2]int{r.Seq, r.Workers}] = true
		}
		for _, r := range before {
			if !have[[2]int{r.Seq, r.Workers}] {
				t.Fatalf("append %d lost record Seq %d (written by append %d): %d records before, %d after",
					i, r.Seq, r.Workers-1000, len(before), len(after))
			}
		}
	}
	return failed
}

// checkIntegrity loads the file cleanly and asserts every surviving
// record is exactly one of the written records, in strictly increasing
// Seq order — torn, fused, or mangled records are the failure this suite
// exists to catch.
func checkIntegrity(t *testing.T, path string, nAppends int) []history.Record {
	t.Helper()
	recs, err := history.LoadFS(nil, path)
	if err != nil {
		t.Fatalf("clean load after fault errored: %v", err)
	}
	lastSeq := 0
	for _, r := range recs {
		if r.Seq <= lastSeq {
			t.Fatalf("Seq not strictly increasing: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		i := r.Workers - 1000
		if i < 0 || i >= nAppends {
			t.Fatalf("loaded record with unknown identity %d", r.Workers)
		}
		want := chaosRecord(i)
		if r.TimeUnixMS != want.TimeUnixMS || r.TotalNS != want.TotalNS ||
			r.Mode != want.Mode || r.Metrics["build.count"] != want.Metrics["build.count"] ||
			r.Units["u.mc"].CompileNS != want.Units["u.mc"].CompileNS {
			t.Fatalf("loaded record %d mangled: %+v", i, r)
		}
	}
	if len(recs) > chaosLimit {
		t.Fatalf("limit not enforced: %d records > %d", len(recs), chaosLimit)
	}
	return recs
}

func TestChaosAppend(t *testing.T) {
	// Crosses the rotation threshold at chaosLimit and rotates on every
	// append after it, nine times in all. Thirteen appends also give history.jsonl as many opens, reads
	// and closes as six did when an append opened the file twice, so every
	// fault point this walk has ever named is still a point.
	const nAppends = 13

	// Record a clean run to enumerate fault points.
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(recDir, history.TempPattern)))
	if failed := appendWorkload(t, rec, filepath.Join(recDir, history.FileName), nAppends); failed != 0 {
		t.Fatalf("clean run failed %d appends", failed)
	}
	checkIntegrity(t, filepath.Join(recDir, history.FileName), nAppends)
	points := chaostest.Points(rec.Calls())
	if len(points) < 20 {
		t.Fatalf("recorded only %d fault points: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpMkdirAll, vfs.OpOpen, vfs.OpOpenFile, vfs.OpCreateTemp,
		vfs.OpRead, vfs.OpWrite, vfs.OpSync, vfs.OpClose, vfs.OpRename} {
		if cov[op] == 0 {
			t.Fatalf("workload never performs %s; append/rotate path not covered (%v)", op, cov)
		}
	}

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, history.FileName)
				ffs := vfs.NewFaultFS(vfs.OS,
					vfs.WithCanon(chaostest.Canon(dir, history.TempPattern)),
					vfs.WithRules(chaostest.RuleFor(p, kind)))
				appendWorkload(t, ffs, path, nAppends)
				chaostest.AssertFired(t, ffs, p)

				// Degradation invariant: no append lost a record (held inside
				// appendWorkload), and whatever survived is valid, ordered,
				// and bounded.
				checkIntegrity(t, path, nAppends)

				// Recovery invariant: the next clean append lands and the
				// file is fully healthy.
				extra := chaosRecord(nAppends - 1)
				if err := history.AppendFS(nil, path, extra, chaosLimit); err != nil {
					t.Fatalf("clean append after fault failed: %v", err)
				}
				recs := checkIntegrity(t, path, nAppends)
				if len(recs) == 0 || recs[len(recs)-1].Seq != extra.Seq {
					t.Fatalf("recovery append not visible as newest record")
				}
			})
		}
	}
}

// TestChaosTornTrailingLine pins the torn-append recovery contract
// directly: a half-written trailing line is dropped on load and repaired
// by the next append's rewrite path.
func TestChaosTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, history.FileName)
	if failed := appendWorkload(t, nil, path, 2); failed != 0 {
		t.Fatal("seed appends failed")
	}

	// Tear the third append mid-line: every write on the history file
	// fails torn.
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpWrite, Path: history.FileName, Kind: vfs.FaultTorn}))
	if err := history.AppendFS(ffs, path, chaosRecord(2), chaosLimit); err == nil {
		t.Fatal("torn append reported success")
	}

	recs := checkIntegrity(t, path, 3)
	if len(recs) != 2 {
		t.Fatalf("torn line not dropped: %d records", len(recs))
	}
	if err := history.AppendFS(nil, path, chaosRecord(2), chaosLimit); err != nil {
		t.Fatalf("append after torn line failed: %v", err)
	}
	if recs = checkIntegrity(t, path, 3); len(recs) != 3 {
		t.Fatalf("recovery append did not restore the file: %d records", len(recs))
	}
}

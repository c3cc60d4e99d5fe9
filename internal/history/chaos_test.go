package history_test

// Flight-recorder chaos suite: walk every injectable I/O fault point of
// an append/rotate/repair/load workload and prove the recorder degrades
// gracefully — a faulted append may drop its record (the recorder is
// advisory and reports the error to its caller), but it must never
// corrupt the file into mangled or fused records, never lose a record
// that was there before it, and the next clean append must fully recover.
// Fault points are enumerated by recording a clean run, not hand-kept.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/history"
	"statefulcc/internal/vfs"
)

// chaosLimit puts three rotations into the workload (rename of the full
// segment, the first write of the next).
const chaosLimit = 4

// chaosDamage is what a crashed predecessor left at the end of the active
// segment before the workload's nth append, for the appends that have an
// entry: those take the repair path (read whole, createtemp/write/sync/close/
// rename), the others append in place, and the ones after every fourth rotate
// first. A line that does not decode is repaired at once; the torn one costs
// its append the three looks it gives a writer that may be alive.
var chaosDamage = map[int]string{
	1: `{"seq":99,"time_unix_ms":17`,
	2: "{not json}\n", 3: "{not json}\n", 5: "\n", 6: "{not json}\n", 7: `{"seq":"x"}` + "\n",
	9: "{not json}\n", 10: "42\n", 11: "{not json}\n",
}

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
		if !appendChecked(t, fsys, path, i) {
			failed++
		}
	}
	return failed
}

// chaosWorkload is appendWorkload over chaosAppends appends, each finding
// the damage chaosDamage has for it. The damage is written past the fault
// injector — the crash being simulated has already happened — and there is
// nothing to damage while every earlier append has failed.
func chaosWorkload(t *testing.T, fsys vfs.FS, path string) (failed int) {
	t.Helper()
	for i := 0; i < chaosAppends; i++ {
		if damage, ok := chaosDamage[i]; ok {
			if f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
				f.WriteString(damage)
				f.Close()
			}
		}
		if !appendChecked(t, fsys, path, i) {
			failed++
		}
	}
	return failed
}

// appendChecked makes the workload's ith append, reports whether it
// succeeded, and holds it to the no-loss invariant either way.
func appendChecked(t *testing.T, fsys vfs.FS, path string, i int) bool {
	t.Helper()
	before, _ := history.LoadFS(nil, path)
	if len(before) > chaosLimit-1 {
		before = before[len(before)-(chaosLimit-1):]
	}
	err := history.AppendFS(fsys, path, chaosRecord(i), chaosLimit)
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
	return err == nil
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
	if len(recs) > 2*chaosLimit {
		t.Fatalf("limit not enforced: %d records in two segments of at most %d", len(recs), chaosLimit)
	}
	return recs
}

// chaosAppends is the length of the walked workload: thirteen appends, nine
// of them repairs (chaosDamage) and three of the other four rotations, give
// history.jsonl and the repair's temp file every fault point this walk has
// ever named — an append used to read the whole file, and past the limit
// rewrite it, every time.
const chaosAppends = 13

func TestChaosAppend(t *testing.T) {
	const nAppends = chaosAppends

	// Record a clean run to enumerate fault points.
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(recDir, history.TempPattern)))
	if failed := chaosWorkload(t, rec, filepath.Join(recDir, history.FileName)); failed != 0 {
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
				chaosWorkload(t, ffs, path)
				chaostest.AssertFired(t, ffs.Log, p)

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

// TestChaosRotation pins the crash points of a rotation directly: readers
// return what they returned before it, whatever the rotation got to, and the
// next clean append lands after it with the next Seq.
func TestChaosRotation(t *testing.T) {
	full := func(t *testing.T) (path string, before []history.Record) {
		path = filepath.Join(t.TempDir(), history.FileName)
		// Six appends: the first four are the older segment, the last is one
		// short of filling the active one.
		if failed := appendWorkload(t, nil, path, 2*chaosLimit-1); failed != 0 {
			t.Fatal("seed appends failed")
		}
		if err := history.Append(path, chaosRecord(2*chaosLimit-1), chaosLimit); err != nil {
			t.Fatal(err)
		}
		return path, checkIntegrity(t, path, 2*chaosLimit)
	}
	for _, tc := range []struct {
		name string
		rule vfs.Rule
		// rotated: the fault hits after the rename, so the segment that was
		// older is gone, as after any rotation.
		rotated bool
	}{
		{"rename fails", vfs.Rule{Op: vfs.OpRename, Path: filepath.Base(history.OlderPath(history.FileName)), Kind: vfs.FaultError}, false},
		{"crash at the rename", vfs.Rule{Op: vfs.OpRename, Path: filepath.Base(history.OlderPath(history.FileName)), Kind: vfs.FaultCrash}, false},
		{"crash after the rename, before the first write", vfs.Rule{Op: vfs.OpOpenFile, Path: history.FileName, Kind: vfs.FaultCrash}, true},
		{"first write to the new segment tears", vfs.Rule{Op: vfs.OpWrite, Path: history.FileName, Kind: vfs.FaultTorn}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path, before := full(t)
			if len(before) != 2*chaosLimit {
				t.Fatalf("%d records before the rotation, want two full segments", len(before))
			}
			ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(tc.rule))
			if err := history.AppendFS(ffs, path, chaosRecord(2*chaosLimit), chaosLimit); err == nil {
				t.Fatal("the faulted append reported success")
			}
			if len(ffs.Injected()) == 0 {
				t.Fatal("the fault never fired")
			}
			want := before
			if tc.rotated {
				want = before[chaosLimit:]
			}
			if after := checkIntegrity(t, path, 2*chaosLimit+1); !reflect.DeepEqual(after, want) {
				t.Fatalf("readers have Seqs %v after the fault, want %v", seqs(after), seqs(want))
			}
			next := chaosRecord(2 * chaosLimit)
			if err := history.Append(path, next, chaosLimit); err != nil {
				t.Fatal(err)
			}
			after := checkIntegrity(t, path, 2*chaosLimit+1)
			if want := append(before[chaosLimit:], *next); next.Seq != 2*chaosLimit+1 || !reflect.DeepEqual(after, want) {
				t.Fatalf("after the next append (Seq %d) readers have Seqs %v, want %v", next.Seq, seqs(after), seqs(want))
			}
		})
	}

	// The older segment is deleted (by hand, by a cleaner): readers have the
	// active segment, appends and the next rotation go on without it.
	t.Run("older segment missing", func(t *testing.T) {
		path, before := full(t)
		if err := os.Remove(history.OlderPath(path)); err != nil {
			t.Fatal(err)
		}
		if after := checkIntegrity(t, path, 2*chaosLimit); !reflect.DeepEqual(after, before[chaosLimit:]) {
			t.Fatalf("readers have Seqs %v, want the active segment's %v", seqs(after), seqs(before[chaosLimit:]))
		}
		next := chaosRecord(2 * chaosLimit)
		if err := history.Append(path, next, chaosLimit); err != nil {
			t.Fatal(err)
		}
		after := checkIntegrity(t, path, 2*chaosLimit+1)
		if want := append(before[chaosLimit:], *next); next.Seq != 2*chaosLimit+1 || !reflect.DeepEqual(after, want) {
			t.Fatalf("after the next append (Seq %d) readers have Seqs %v, want %v", next.Seq, seqs(after), seqs(want))
		}
	})
}

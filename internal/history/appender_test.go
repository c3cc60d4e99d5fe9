package history_test

// An Appender's memory: an append to the segment its own last append left
// reads nothing, and anything else that happened to the segment — another
// writer's line, a crashed append's torn one, another file in its place, a
// rotation — sends the next append down the full path, which numbers after
// what the file holds.

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/vfs"
)

// appenderLimit is far from the Seqs the tests below reach, but where a test
// rotates.
const appenderLimit = 10

// newAppender returns an Appender of the history at path through fsys and the
// counter of the appends that read the segment's end.
func newAppender(fsys vfs.FS, path string, limit int) (*history.Appender, *obs.Counter) {
	reads := obs.NewRegistry().Counter(obs.CtrHistoryTailReads)
	return history.NewAppender(fsys, path, limit, reads), reads
}

// mustAppend appends the workload's ith record through a.
func mustAppend(t *testing.T, a *history.Appender, i int) *history.Record {
	t.Helper()
	rec := chaosRecord(i)
	if err := a.Append(rec); err != nil {
		t.Fatalf("append %d: %v", i, err)
	}
	return rec
}

// lastSeq is the Seq of the newest record of the history at path.
func lastSeq(t *testing.T, path string) int {
	t.Helper()
	recs, err := history.LoadLast(path, 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("newest record: %v (%d records)", err, len(recs))
	}
	return recs[0].Seq
}

// TestAppenderSecondAppendReadsNothing: the second append through one
// Appender is one Stat that finds the file the first left, the O_APPEND
// write, and the Stat that remembers what it left — no open for reading, no
// byte read, no directory made.
func TestAppenderSecondAppendReadsNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, history.FileName)
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir, history.TempPattern)))
	a, reads := newAppender(ffs, path, appenderLimit)
	mustAppend(t, a, 0)
	n, read := len(ffs.Calls()), ffs.BytesRead(history.FileName)
	rec := mustAppend(t, a, 1)

	var got []string
	for _, c := range ffs.Calls()[n:] {
		if c.Path != history.FileName {
			t.Errorf("the second append touched %s", c)
		}
		got = append(got, string(c.Op))
	}
	if want := []string{"stat", "openfile", "write", "close", "stat"}; !slices.Equal(got, want) {
		t.Errorf("the second append made the calls %v, want %v", got, want)
	}
	if d := ffs.BytesRead(history.FileName) - read; d != 0 {
		t.Errorf("the second append read %d bytes of the segment", d)
	}
	if reads.Load() != 1 {
		t.Errorf("%d appends read the segment's end, want the first alone", reads.Load())
	}
	if recs := checkIntegrity(t, path, 2); len(recs) != 2 || rec.Seq != 2 {
		t.Fatalf("%d records, the second numbered %d; want 2 and 2", len(recs), rec.Seq)
	}
}

// renumbered returns the bytes of the segment at path with its last record's
// Seq, 2, made 7 — a file of the same size — and what Stat says of it.
func renumbered(t *testing.T, path string) ([]byte, os.FileInfo) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(data, []byte(`"seq":2,`))
	if i < 0 {
		t.Fatalf("no Seq 2 in %q", data)
	}
	data[i+len(`"seq":`)] = '7'
	return data, fi
}

// TestAppenderTakesTheFullPathAfterAnotherWriter: whatever else happened to
// the segment since an Appender's last append, its next append reads the end
// of the file, numbers after what the file holds, and the one after that
// reads nothing again.
func TestAppenderTakesTheFullPathAfterAnotherWriter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		meddle  func(t *testing.T, path string)
		records int // whole records written, theirs and ours, when the next append starts
	}{
		{"a foreign append", func(t *testing.T, path string) {
			if err := history.AppendFS(nil, path, chaosRecord(2), appenderLimit); err != nil {
				t.Fatal(err)
			}
		}, 3},
		{"a foreign append that kept the modification time", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := history.AppendFS(nil, path, chaosRecord(2), appenderLimit); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
		}, 3},
		{"a foreign torn tail", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(`{"seq":3,"time_unix_ms":17`); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"the segment rewritten in place to the same size", func(t *testing.T, path string) {
			data, fi := renumbered(t, path)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			later := fi.ModTime().Add(time.Second)
			if err := os.Chtimes(path, later, later); err != nil {
				t.Fatal(err)
			}
		}, 7},
		{"the segment replaced by a file of the same size and time", func(t *testing.T, path string) {
			data, fi := renumbered(t, path)
			other := filepath.Join(filepath.Dir(path), "other")
			if err := os.WriteFile(other, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(other, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(other, path); err != nil {
				t.Fatal(err)
			}
		}, 7},
		{"a rotation by another writer", func(t *testing.T, path string) {
			// At a limit of 2 the segment, ending on Seq 2, is full.
			if err := history.AppendFS(nil, path, chaosRecord(2), 2); err != nil {
				t.Fatal(err)
			}
			if recs, err := history.LoadFS(nil, history.OlderPath(path)); err != nil || len(recs) != 2 {
				t.Fatalf("the other writer did not rotate: %d records in the older segment, %v", len(recs), err)
			}
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), history.FileName)
			a, reads := newAppender(nil, path, appenderLimit)
			mustAppend(t, a, 0)
			mustAppend(t, a, 1)
			tc.meddle(t, path)

			rec := mustAppend(t, a, 3)
			if reads.Load() != 2 {
				t.Errorf("%d appends read the segment's end, want the first and this one", reads.Load())
			}
			// A torn tail left unrepaired would have fused with the new line,
			// and the history would not end on it.
			if rec.Seq != tc.records+1 || lastSeq(t, path) != rec.Seq {
				t.Errorf("the append was numbered %d and the history ends on %d; want %d", rec.Seq, lastSeq(t, path), tc.records+1)
			}
			checkIntegrity(t, path, 4)

			next := mustAppend(t, a, 4)
			if reads.Load() != 2 || next.Seq != rec.Seq+1 {
				t.Errorf("the append after it read the end (%d reads) or was numbered %d, want no read and %d", reads.Load(), next.Seq, rec.Seq+1)
			}
		})
	}
}

// TestAppenderRotatesAtTheLimit: an Appender that remembers writing a Seq
// that is a multiple of the limit takes the full path, which rotates the
// segment; the appends in between read nothing.
func TestAppenderRotatesAtTheLimit(t *testing.T) {
	const limit = 3
	path := filepath.Join(t.TempDir(), history.FileName)
	a, reads := newAppender(nil, path, limit)
	for i := 0; i < 2*limit+1; i++ {
		mustAppend(t, a, i)
	}
	older, err := history.LoadFS(nil, history.OlderPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if got := seqs(older); !slices.Equal(got, []int{4, 5, 6}) {
		t.Errorf("older segment holds Seqs %v, want 4 5 6", got)
	}
	if got := seqs(checkIntegrity(t, path, 2*limit+1)); !slices.Equal(got, []int{4, 5, 6, 7}) {
		t.Errorf("readers have Seqs %v, want 4 5 6 7", got)
	}
	if reads.Load() != 3 {
		t.Errorf("%d appends read the segment's end, want 3: the first and the two at the limit", reads.Load())
	}
}

// TestAppenderFastPathFaults: a fault on any call of an append that takes
// the fast path is returned as the append's error and leaves every record the
// history had; the next clean append numbers after the newest whole one. The
// record may be there all the same when the Close after the write fails. The
// one exception is the Stat after the write, whose failure leaves the record
// written and is not the append's: it drops the Appender's memory, and the
// next append reads the end of the segment again.
func TestAppenderFastPathFaults(t *testing.T) {
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(recDir, history.TempPattern)))
	a, _ := newAppender(rec, filepath.Join(recDir, history.FileName), appenderLimit)
	mustAppend(t, a, 0)
	n := len(rec.Calls())
	mustAppend(t, a, 1)
	points := chaostest.Points(rec.Calls()[n:])
	if len(points) != 5 {
		t.Fatalf("the fast path made %d calls, want 5: %v", len(points), points)
	}
	remember := points[len(points)-1]

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, history.FileName)
				ffs := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir, history.TempPattern)),
					vfs.WithRules(chaostest.RuleFor(p, kind)))
				a, reads := newAppender(ffs, path, appenderLimit)
				mustAppend(t, a, 0)
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				err = a.Append(chaosRecord(1))
				chaostest.AssertFired(t, ffs.Log, p)
				after, _ := os.ReadFile(path)
				if !bytes.HasPrefix(after, before) {
					t.Fatalf("the faulted append changed what the history held:\n%q\n%q", before, after)
				}
				want := 1
				switch {
				case p.Op == vfs.OpClose:
					if err == nil {
						t.Fatal("the append reported success over a failed Close")
					}
					want = 2 // the line was written before its handle's Close failed
				case p == remember:
					if err != nil {
						t.Fatalf("a fault on the Stat after the write failed the append: %v", err)
					}
					want = 2
				case err == nil:
					t.Fatalf("the append reported success over a fault on %s", p)
				}
				if got := checkIntegrity(t, path, 2); len(got) != want {
					t.Fatalf("%d records after the fault, want %d", len(got), want)
				}

				if kind == vfs.FaultCrash {
					a, reads = newAppender(nil, path, appenderLimit)
				}
				next := mustAppend(t, a, 2)
				if next.Seq != want+1 || reads.Load() != 2 && kind != vfs.FaultCrash {
					t.Errorf("the next append was numbered %d after %d end reads, want %d after the first append's and its own", next.Seq, reads.Load(), want+1)
				}
				checkIntegrity(t, path, 3)
			})
		}
	}
}

// interleaved is a filesystem on which, once armed, another writer appends a
// record to the history just before the next O_APPEND open of it.
type interleaved struct {
	vfs.FS
	armed bool
}

func (fs *interleaved) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if fs.armed && flag&os.O_APPEND != 0 {
		fs.armed = false
		if err := history.AppendFS(nil, name, chaosRecord(9), appenderLimit); err != nil {
			return nil, err
		}
	}
	return fs.FS.OpenFile(name, flag, perm)
}

// TestAppenderForgetsAnInterleavedWriter: another writer's line that lands
// between an append's Stat and its write is not the append's to remember —
// the segment grew by more than its line — so the append after it reads the
// end of the segment again.
func TestAppenderForgetsAnInterleavedWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), history.FileName)
	fsys := &interleaved{FS: vfs.OS}
	a, reads := newAppender(fsys, path, appenderLimit)
	mustAppend(t, a, 0)
	mustAppend(t, a, 1)
	fsys.armed = true
	mustAppend(t, a, 2) // the fast path, and the other writer's line before its own
	if reads.Load() != 1 {
		t.Fatalf("%d appends read the segment's end before the interleaved one, want 1", reads.Load())
	}
	next := mustAppend(t, a, 3)
	if reads.Load() != 2 || next.Seq != 4 {
		t.Errorf("the append after the interleaved one: %d end reads in all, Seq %d; want 2 and 4", reads.Load(), next.Seq)
	}
	// Two records share Seq 3, as two writers' records can.
	if recs, err := history.Load(path); err != nil || len(recs) != 5 {
		t.Errorf("%d records (%v), want 5", len(recs), err)
	}
}

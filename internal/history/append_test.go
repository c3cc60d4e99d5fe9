package history_test

// What an append reads, keeps and costs: a read fault never shrinks the
// history, neither a rotation nor a repair changes a byte of an old line, and
// an append to a file of real shape at the limit reads and allocates what one
// record takes.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"statefulcc/internal/history"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vfs"
)

// TestReadFaultNeverShrinksHistory: a read that fails, tears or crashes
// while an append takes stock of the file ends that append with an error and
// every byte of the history where it was. (Until PR 20 the append read
// through LoadFS, which returns what parsed before a read error: one failed
// read replaced three records with one whose Seq restarted at 1, and the
// append reported success.)
func TestReadFaultNeverShrinksHistory(t *testing.T) {
	for _, kind := range []vfs.Fault{vfs.FaultError, vfs.FaultTorn, vfs.FaultCrash} {
		t.Run(kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), history.FileName)
			if failed := appendWorkload(t, nil, path, 3); failed != 0 {
				t.Fatal("seed appends failed")
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
				vfs.Rule{Op: vfs.OpRead, Path: history.FileName, Nth: 1, Kind: kind}))
			if err := history.AppendFS(ffs, path, chaosRecord(3), 10); err == nil {
				t.Error("append over a failed read reported success")
			}
			if len(ffs.Injected()) == 0 {
				t.Fatal("the read fault never fired")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				recs, _ := history.Load(path)
				t.Fatalf("history changed under a read fault: %d bytes → %d, %d records left", len(before), len(after), len(recs))
			}

			// The fault gone, the next append continues the numbering.
			next := chaosRecord(3)
			if err := history.AppendFS(nil, path, next, 10); err != nil {
				t.Fatal(err)
			}
			if recs := checkIntegrity(t, path, 4); len(recs) != 4 || next.Seq != 4 {
				t.Fatalf("after the fault cleared: %d records, new Seq %d; want 4 and 4", len(recs), next.Seq)
			}
		})
	}
}

// shapeLine is one line of a history file and whether LoadFS returns a record
// for it.
type shapeLine struct {
	text  string
	loads bool
}

// shapeLimit is the record limit the file shapes are written against: some
// are at it, some over it.
const shapeLimit = 4

// fileShape is one history file a reader or an append can find.
type fileShape struct {
	name  string
	lines []shapeLine
}

// fileShapes is those files: as this version writes them, as another version
// or a crash left them, and over the limit.
func fileShapes(t *testing.T) []fileShape {
	type line = shapeLine
	canon := func(seq int) line {
		rec := chaosRecord(seq)
		rec.Seq = seq
		text, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return line{string(text) + "\n", true}
	}
	canons := func(from, to int) (lines []line) {
		for seq := from; seq <= to; seq++ {
			lines = append(lines, canon(seq))
		}
		return lines
	}
	// Valid, but not as this version writes it: spacing, key order, and a
	// field from a later version.
	foreign := line{`{ "seq": 3, "mode":"stateful",  "workers": 1003, "added_in_v9": {"k": [1, 2]}, "units": {} }` + "\n", true}
	corrupt := line{"{not json}\n", false}
	unterminated := canon(2)
	unterminated.text = strings.TrimSuffix(unterminated.text, "\n")

	return []fileShape{
		{"canonical at the limit", canons(1, 4)},
		{"foreign line", []line{canon(1), canon(2), foreign, canon(4)}},
		{"corrupt line mid-file", []line{canon(1), corrupt, canon(2)}},
		{"blank line mid-file", []line{canon(1), {"\n", false}, canon(2)}},
		{"torn tail", []line{canon(1), canon(2), {`{"seq":5,"time_unix_ms":17`, false}}},
		{"unterminated parseable tail", []line{canon(1), unterminated}},
		{"valid JSON, not a record", []line{canon(1), {"42\n", false}, {`{"seq":"x"}` + "\n", false}, canon(2)}},
		{"over the limit by 1", canons(1, 5)},
		{"over the limit by 50", canons(1, 54)},
		{"over the limit, foreign and corrupt", append(canons(1, 5), corrupt, foreign, canon(7))},
		{"over the limit, torn tail", append(canons(1, 6), line{`{"seq":9,"time_unix_ms":17`, false})},
		{"at the limit, corrupt last line", append(canons(1, 4), corrupt)},
	}
}

// TestRotationKeepsBytes: whatever an append does to the file it finds — add
// its line in place, rotate the file out first, or repair it — the records
// that were there are still there, up to the limit, and their lines are the
// bytes that were in the file: not a re-encoding, so a field this version
// does not know survives.
//
//   - The file ends in a whole record: every byte stays; a corrupt line in
//     the middle is not the append's business.
//   - It does not (torn, unterminated or corrupt last line): the file is first
//     replaced by its lines that load, as they stand; what LoadFS drops is
//     gone from it.
//   - Either way the file is renamed to the older segment before the new line
//     is written if its last record's Seq is a multiple of the limit.
func TestRotationKeepsBytes(t *testing.T) {
	const limit = shapeLimit
	for _, tc := range fileShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			var file, kept, gone []string
			for _, l := range tc.lines {
				file = append(file, l.text)
				if l.loads {
					kept = append(kept, strings.TrimSuffix(l.text, "\n")+"\n")
				} else if l.text != "\n" {
					gone = append(gone, strings.TrimSuffix(l.text, "\n"))
				}
			}
			last := tc.lines[len(tc.lines)-1]
			whole := last.loads && strings.HasSuffix(last.text, "\n")
			found := strings.Join(file, "")
			path := filepath.Join(t.TempDir(), history.FileName)
			if err := os.WriteFile(path, []byte(found), 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := history.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) != len(before) {
				t.Fatalf("case is wrong about itself: %d lines marked as loading, LoadFS returns %d records", len(kept), len(before))
			}
			lastSeq := 0
			if len(before) > 0 {
				lastSeq = before[len(before)-1].Seq
			}

			added := chaosRecord(0)
			if err := history.Append(path, added, limit); err != nil {
				t.Fatal(err)
			}
			if added.Seq != lastSeq+1 {
				t.Errorf("new record got Seq %d, want %d", added.Seq, lastSeq+1)
			}
			addedLine, err := added.Encode()
			if err != nil {
				t.Fatal(err)
			}

			// (a) the records: what loaded, then the new one.
			after, err := history.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(before, *added); !reflect.DeepEqual(after, want) {
				t.Errorf("records after the append have Seqs %v, want %v with equal content", seqs(after), seqs(want))
			}
			// (b) the bytes of the two segments.
			wantActive, wantOlder := found, ""
			if !whole {
				wantActive = strings.Join(kept, "")
			}
			if lastSeq%limit == 0 {
				wantActive, wantOlder = "", wantActive
			}
			wantActive += string(addedLine) + "\n"
			active, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			older, err := os.ReadFile(history.OlderPath(path))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if string(active) != wantActive || string(older) != wantOlder {
				t.Errorf("after the append (whole tail: %v, last Seq %d, limit %d)\nactive segment %q\n           want %q\n older segment %q\n           want %q",
					whole, lastSeq, limit, active, wantActive, older, wantOlder)
			}
			// (c) a repair leaves nothing of what LoadFS drops.
			for _, g := range gone {
				if !whole && bytes.Contains(append(active, older...), []byte(g)) {
					t.Errorf("dropped line %q is still in the repaired file", g)
				}
			}
		})
	}
}

func seqs(recs []history.Record) (out []int) {
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

// atLimitFile writes a history file at the default limit whose records have
// the shape of real megarepo edit-loop builds.
func atLimitFile(tb testing.TB) (path string, size int) {
	tb.Helper()
	path = filepath.Join(tb.TempDir(), history.FileName)
	data := testutil.HistoryFile(history.DefaultLimit)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path, len(data)
}

// BenchmarkAppendAtLimit is the cost every build of a lived-in checkout
// pays: one append to a history at the default limit, 200 records of ≈ 5.7 KB
// (the first iteration rotates them out; every 200th after it rotates too).
func BenchmarkAppendAtLimit(b *testing.B) {
	path, size := atLimitFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := history.Append(path, testutil.HistoryRecord(history.DefaultLimit+1+i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/(1<<20), "file_MB")
}

// TestAppendAtLimitAllocBytes holds an append to a file at the limit to what
// it allocates today plus a tenth, and to what it reads. The first append
// finds 200 records ending on Seq 200 and rotates them out: it reads the end
// of the file, and the file once, a chunk at a time, to count its lines. The
// next two read the end of the file they find. What each allocates is one
// chunk, the file's last record decoded, and the new line.
//
// The file is 200 records of the shape builds write. While an append read the
// whole file and decoded every line of it to check it, it allocated 6.8 MB on
// this file (18.9 MB on the shape records had until PR 23, 31.9 MB on the one
// they had until PR 21, when the file was 5.71 MB).
func TestAppendAtLimitAllocBytes(t *testing.T) {
	const nowMB = 0.10 // 1.14 MB file; 0.09–0.10 in six runs when PR 24 pinned it
	const chunk = 64 << 10
	path, size := atLimitFile(t)
	recs := make([]*history.Record, 3)
	for i := range recs {
		recs[i] = testutil.HistoryRecord(history.DefaultLimit + 1 + i)
	}
	reads := make([]int64, len(recs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, rec := range recs {
		fsys := vfs.NewFaultFS(vfs.OS)
		if err := history.AppendFS(fsys, path, rec, 0); err != nil {
			t.Fatal(err)
		}
		reads[i] = fsys.BytesRead(path) + fsys.BytesRead(history.OlderPath(path))
	}
	runtime.ReadMemStats(&m1)
	gotMB := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(recs)) / (1 << 20)
	t.Logf("%.2f MB allocated per append at the limit (recorded %.2f); bytes read %v of a %d-byte file", gotMB, nowMB, reads, size)
	if ceiling := 1.1 * nowMB; gotMB > ceiling {
		t.Errorf("append at the limit allocates %.2f MB, ceiling %.2f (1.1 × the recorded %.2f): is it holding more than the end of the file?",
			gotMB, ceiling, nowMB)
	}
	if reads[0] > int64(size)+chunk || reads[1] > chunk || reads[2] > chunk {
		t.Errorf("the appends read %v bytes; want the file (%d) and a chunk (%d) for the one that rotates, a chunk for the others", reads, size, chunk)
	}
	if recs, err := history.Load(path); err != nil || len(recs) != history.DefaultLimit+3 {
		t.Fatalf("history after the appends: %d records, err %v; want the %d it had and 3", len(recs), err, history.DefaultLimit)
	}
	if older, err := history.LoadFS(nil, history.OlderPath(path)); err != nil || len(older) != history.DefaultLimit {
		t.Fatalf("older segment after the appends: %d records, err %v; want the %d the file had", len(older), err, history.DefaultLimit)
	}
}

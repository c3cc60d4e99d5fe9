package history_test

// What an append reads, keeps and costs: a read fault never shrinks the
// history, rotation copies old lines byte for byte, and an append at the
// limit on a file of real shape stays inside an allocation ceiling.

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
	}
}

// TestRotationKeepsBytes: whenever an append rewrites the file, the records
// that survive are the newest limit-1 that LoadFS returned before it, and
// their lines are the bytes that were in the file — not a re-encoding, so a
// field this version does not know survives rotation.
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
			path := filepath.Join(t.TempDir(), history.FileName)
			if err := os.WriteFile(path, []byte(strings.Join(file, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := history.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) != len(before) {
				t.Fatalf("case is wrong about itself: %d lines marked as loading, LoadFS returns %d records", len(kept), len(before))
			}
			if len(before) > limit-1 {
				before, kept = before[len(before)-(limit-1):], kept[len(kept)-(limit-1):]
			}

			added := chaosRecord(0)
			if err := history.Append(path, added, limit); err != nil {
				t.Fatal(err)
			}
			lastSeq := 0
			if len(before) > 0 {
				lastSeq = before[len(before)-1].Seq
			}
			if added.Seq != lastSeq+1 {
				t.Errorf("new record got Seq %d, want %d", added.Seq, lastSeq+1)
			}

			// (a) the records: newest limit-1 of what loaded, then the new one.
			after, err := history.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(before, *added); !reflect.DeepEqual(after, want) {
				t.Errorf("records after the append have Seqs %v, want %v with equal content", seqs(after), seqs(want))
			}
			// (b) the bytes: every kept line as it stood, then the new line,
			// and nothing else — the file ends in a newline.
			addedLine, err := added.Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := strings.Join(kept, "") + string(addedLine) + "\n"; string(got) != want {
				t.Errorf("file after the append is not the kept lines byte for byte plus the new one:\n got %q\nwant %q", got, want)
			}
			// (c), (d) what LoadFS drops is gone from the file.
			for _, g := range gone {
				if bytes.Contains(got, []byte(g)) {
					t.Errorf("dropped line %q is still in the file", g)
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
// pays: one append to a file at the default limit, 200 records of ≈ 5.7 KB.
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

// TestAppendAtLimitAllocBytes holds an append at the limit to what it
// allocates today plus a tenth. What it allocates is the file's bytes, one
// record decoded at a time, and the new line; an append that kept the decoded
// records or encoded old ones again (PR 19's did both) costs a fifth more.
//
// The file is 200 records of the shape builds write. Until PR 21 that shape
// had a timeline event for every cached unit (testutil.HistoryRecordV1): the
// file was 5.71 MB and the same append allocated 31.9 MB on it (PR 19's: 38.8).
// Until PR 23 it had a table entry for every cached unit and a pass name and a
// reason in every decision row (testutil.HistoryRecordV2): 2.81 MB, 18.9 MB.
func TestAppendAtLimitAllocBytes(t *testing.T) {
	const nowMB = 6.8 // 1.14 MB file; 6.8 in three runs when PR 23 re-pinned it
	path, _ := atLimitFile(t)
	recs := make([]*history.Record, 3)
	for i := range recs {
		recs[i] = testutil.HistoryRecord(history.DefaultLimit + 1 + i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, rec := range recs {
		if err := history.Append(path, rec, 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	gotMB := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(recs)) / (1 << 20)
	t.Logf("%.1f MB allocated per append at the limit (recorded %.1f)", gotMB, nowMB)
	if ceiling := 1.1 * nowMB; gotMB > ceiling {
		t.Errorf("append at the limit allocates %.1f MB, ceiling %.1f (1.1 × the recorded %.1f): is an old record being kept or re-encoded?",
			gotMB, ceiling, nowMB)
	}
	if recs, err := history.Load(path); err != nil || len(recs) != history.DefaultLimit {
		t.Fatalf("file after the appends: %d records, err %v", len(recs), err)
	}
}

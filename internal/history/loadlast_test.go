package history_test

// What a reader of the newest records gets (the same records Load's tail
// holds, on every file shape), and what two processes appending to one
// history file keep (every record, below the limit).

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"statefulcc/internal/history"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vfs"
)

// checkLoadLast holds LoadLast(path, n) to the last n records of Load(path)
// for each n.
func checkLoadLast(t *testing.T, path string, ns ...int) {
	t.Helper()
	all, err := history.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		want := all
		if n > 0 && len(want) > n {
			want = want[len(want)-n:]
		}
		got, err := history.LoadLast(path, n)
		if err != nil {
			t.Fatalf("LoadLast(%d): %v", n, err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("LoadLast(%d) has Seqs %v, the tail of Load has %v (equal content wanted)", n, seqs(got), seqs(want))
		}
	}
}

// TestLoadLastIsLoadsTail: on every file shape an append can meet — and on
// files of real-shape records, which take several reads from the end —
// LoadLast returns exactly the tail of Load.
func TestLoadLastIsLoadsTail(t *testing.T) {
	ns := []int{1, 2, 11, shapeLimit, shapeLimit + 5, 0}
	for _, tc := range fileShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			var file strings.Builder
			for _, l := range tc.lines {
				file.WriteString(l.text)
			}
			path := filepath.Join(t.TempDir(), history.FileName)
			if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			checkLoadLast(t, path, ns...)
		})
	}

	// 30 records of ≈ 17 KB, then of both shapes mixed with damage between
	// them: the walk back crosses read boundaries inside records.
	real := testutil.HistoryFile(30)
	v1 := oldShapeLine(t, 31)
	for name, data := range map[string][]byte{
		"real-shape records":                 real,
		"real-shape records, torn tail":      append(bytes.Clone(real), v1[:len(v1)/2]...),
		"both shapes, corrupt line between":  bytes.Join([][]byte{real, []byte("{not json}\n\n"), v1, []byte("\n")}, nil),
		"old shape last, unterminated":       append(bytes.Clone(real), v1...),
		"one blank line":                     []byte("\n"),
		"empty file":                         nil,
		"one unterminated record, no others": v1,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), history.FileName)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			checkLoadLast(t, path, 1, 2, 11, 29, 30, 31, 35, 0)
		})
	}

	t.Run("no file", func(t *testing.T) {
		recs, err := history.LoadLast(filepath.Join(t.TempDir(), history.FileName), 3)
		if err != nil || recs != nil {
			t.Errorf("LoadLast of a missing file: %d records, err %v; want none and nil, as Load", len(recs), err)
		}
	})
}

// oldShapeLine is HistoryRecordV1(seq) as its line, without the newline.
func oldShapeLine(t *testing.T, seq int) []byte {
	t.Helper()
	rec := testutil.HistoryRecordV1(seq)
	rec.Seq = seq
	line, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// Two processes, one history file. The appender is this test binary run
// again with appenderEnv set: it appends that many records to the file named
// there and exits.
const appenderEnv = "HISTORY_TEST_APPEND"

func TestMain(m *testing.M) {
	if spec := os.Getenv(appenderEnv); spec != "" {
		os.Exit(runAppender(spec))
	}
	os.Exit(m.Run())
}

// runAppender serves "<writer>:<appends>:<limit>:<path>": appends records
// whose Workers field is 1000*writer + i, so the reader can tell whose each
// line is.
func runAppender(spec string) int {
	f := strings.SplitN(spec, ":", 4)
	if len(f) != 4 {
		fmt.Fprintln(os.Stderr, "appender: bad spec", spec)
		return 2
	}
	writer, _ := strconv.Atoi(f[0])
	appends, _ := strconv.Atoi(f[1])
	limit, _ := strconv.Atoi(f[2])
	for i := 1; i <= appends; i++ {
		rec := chaosRecord(i)
		rec.Workers = 1000*writer + i
		if err := history.Append(f[3], rec, limit); err != nil {
			fmt.Fprintln(os.Stderr, "appender:", err)
			return 1
		}
	}
	return 0
}

// TestTwoProcessAppend: two minibuild processes on one state directory
// interleave their appends. An append is one O_APPEND write of one whole
// line, so no record is lost or torn however the two interleave — across a
// rotation too: the full segment is renamed, not rewritten, so a line written
// to it by the process that did not rename it is in the older segment, and
// the rename is made by one of the two (AppendFS). Sequence numbers are not
// coordinated — each writer numbers its record from the end it read — so a
// Seq can repeat; readers select by position, and `profile -build N` takes
// the first match.
func TestTwoProcessAppend(t *testing.T) {
	const appends = 50
	// twoWriters runs two appender processes against one history of seeded
	// records and returns its path.
	twoWriters := func(t *testing.T, seeded, limit int) string {
		exe, err := os.Executable()
		if err != nil {
			t.Skip("no path to the test binary:", err)
		}
		path := filepath.Join(t.TempDir(), history.FileName)
		for i := 1; i <= seeded; i++ {
			if err := history.Append(path, chaosRecord(i), limit); err != nil {
				t.Fatal(err)
			}
		}
		var cmds []*exec.Cmd
		for writer := 1; writer <= 2; writer++ {
			cmd := exec.Command(exe)
			cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d:%d:%d:%s", appenderEnv, writer, appends, limit, path))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			cmds = append(cmds, cmd)
		}
		for _, cmd := range cmds {
			if err := cmd.Wait(); err != nil {
				t.Fatalf("appender: %v", err)
			}
		}
		return path
	}
	// allThere holds the history to the seeded records and every record of
	// both writers, each line a record, and returns the records.
	allThere := func(t *testing.T, path string, seeded int) []history.Record {
		lines := 0
		for _, file := range []string{history.OlderPath(path), path} {
			data, err := os.ReadFile(file)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if lines += bytes.Count(data, []byte{'\n'}); len(data) == 0 || data[len(data)-1] != '\n' {
				t.Errorf("%s is empty or ends in a torn line", filepath.Base(file))
			}
		}
		recs, err := history.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines != seeded+2*appends || len(recs) != lines {
			t.Fatalf("%d lines, %d of them records, want %d of each: a line was lost, torn or fused", lines, len(recs), seeded+2*appends)
		}
		held := make(map[int]bool, len(recs))
		seen := make(map[int]bool, len(recs))
		for _, r := range recs[seeded:] {
			held[r.Workers], seen[r.Seq] = true, true
			if r.Seq <= seeded || r.Seq > len(recs) {
				t.Errorf("Seq %d in a history of %d records, %d of them there before", r.Seq, len(recs), seeded)
			}
		}
		for writer := 1; writer <= 2; writer++ {
			for i := 1; i <= appends; i++ {
				if !held[1000*writer+i] {
					t.Errorf("writer %d's append %d is not in the history", writer, i)
				}
			}
		}
		// Allowed, so reported as what it is and not as a failure.
		t.Logf("%d records from the two writers, %d of them with a Seq another has", 2*appends, 2*appends-len(seen))
		return recs
	}

	t.Run("below the limit", func(t *testing.T) {
		path := twoWriters(t, 0, 4*appends)
		allThere(t, path, 0)
		if _, err := os.Stat(history.OlderPath(path)); !os.IsNotExist(err) {
			t.Errorf("a segment was rotated out below the limit (stat: %v)", err)
		}
	})

	// The segment fills while both processes are appending (it starts 30
	// short of full; the two add 50 Seqs at least, 100 at most, so they cross
	// one limit and cannot reach the next): both can find it full at once, one
	// renames it, and the other's line goes where it finds room — the renamed
	// file if it had it open, the new one if not. Until segments, the file at
	// its limit was read, rewritten and renamed over, and a line the other
	// process added in between was lost.
	t.Run("at the limit", func(t *testing.T) {
		const limit, seeded = 200, 170
		path := twoWriters(t, seeded, limit)
		recs := allThere(t, path, seeded)
		older, err := history.LoadFS(nil, history.OlderPath(path))
		if err != nil {
			t.Fatal(err)
		}
		// (LoadFS of the older segment's path finds no segment older still.)
		if len(older) < limit || len(older) == len(recs) {
			t.Errorf("%d of %d records in the older segment: want one rotation, at Seq %d", len(older), len(recs), limit)
		}
	})
}

// TestAppendWaitsOutALiveWriter: a reader can see another process's O_APPEND
// write half done (a line that crosses a page boundary becomes visible a page
// at a time). An append that took that for a crashed writer's torn line would
// rewrite the file without it and rename over the line the writer is about
// to complete. It looks again first: here the line completes at the second
// look, and the append adds its own in place.
func TestAppendWaitsOutALiveWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), history.FileName)
	for i := 1; i <= 2; i++ {
		if err := history.Append(path, chaosRecord(i), 10); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(whole) - 100
	if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	fsys := &hookFS{FS: vfs.OS, onStat: func(nth int) {
		if nth != 2 {
			return // the append's second look at the file
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		if _, err := f.Write(whole[cut:]); err != nil {
			t.Error(err)
		}
	}}
	added := chaosRecord(3)
	if err := history.AppendFS(fsys, path, added, 10); err != nil {
		t.Fatal(err)
	}
	if fsys.temps != 0 {
		t.Error("the append rewrote the file under a live writer")
	}
	line, err := added.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(whole) + string(line) + "\n"; string(got) != want || added.Seq != 3 {
		t.Errorf("file after the append (new Seq %d):\n got %q\nwant %q", added.Seq, got, want)
	}
}

// TestReaderSeesARotation: a reader has read the older segment and is about
// to open the active one when an append rotates — the file it opens is the
// new segment, and the one it should have read is now the older one. It
// notices that history.1.jsonl is another file than before and reads again.
func TestReaderSeesARotation(t *testing.T) {
	const limit = 4
	path := filepath.Join(t.TempDir(), history.FileName)
	for i := 1; i <= 2*limit; i++ { // [1..4] older, [5..8] active and full
		if err := history.Append(path, chaosRecord(i), limit); err != nil {
			t.Fatal(err)
		}
	}
	rotated := false
	fsys := &hookFS{FS: vfs.OS, onOpen: func(name string) {
		if name == path && !rotated {
			rotated = true
			if err := history.Append(path, chaosRecord(2*limit+1), limit); err != nil {
				t.Error(err)
			}
		}
	}}
	recs, err := history.LoadFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(seqs(recs)), "[5 6 7 8 9]"; !rotated || got != want {
		t.Errorf("a reader across a rotation (made: %v) has Seqs %s, want %s: the segment that was active when it started, and the new one", rotated, got, want)
	}
}

// hookFS calls onStat and onCreateTemp, when set, before the nth Stat and
// CreateTemp (counted from 1) go through, and onOpen before an Open of the
// named file: places to stand inside an append, after it has read the file
// and before it replaces it, or inside a reader between its two files.
type hookFS struct {
	vfs.FS
	stats, temps         int
	onStat, onCreateTemp func(nth int)
	onOpen               func(name string)
}

func (f *hookFS) Open(name string) (vfs.File, error) {
	if f.onOpen != nil {
		f.onOpen(name)
	}
	return f.FS.Open(name)
}

func (f *hookFS) Stat(name string) (fs.FileInfo, error) {
	if f.stats++; f.onStat != nil {
		f.onStat(f.stats)
	}
	return f.FS.Stat(name)
}

func (f *hookFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if f.temps++; f.onCreateTemp != nil {
		f.onCreateTemp(f.temps)
	}
	return f.FS.CreateTemp(dir, pattern)
}

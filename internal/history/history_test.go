package history

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"statefulcc/internal/core"
)

// testRecord is a small record in the current shape. FuzzHistoryTail seeds a
// cut of its line at every offset, so the line's length (385 bytes at Seq 41)
// numbers the seeds that follow; keep it when changing the record.
func testRecord(skipPct float64, totalNS int64) *Record {
	return &Record{
		TimeUnixMS:    1700000000000,
		Mode:          "stateful",
		Workers:       2,
		TotalNS:       totalNS,
		CompileNS:     totalNS / 2,
		LinkNS:        totalNS / 10,
		UnitsCompiled: 1,
		UnitsCached:   1,
		SkipRatePct:   skipPct,
		Metrics:       map[string]int64{"pass.runs": 10, "pass.skipped": 5, "build.count": 1},
		Pipeline:      []string{"mem2reg", "loadelim"},
		Units: map[string]UnitRecord{
			"a.mc": {CompileNS: totalNS / 2, Passes: []core.SlotStats{{Runs: 1, Cold: 1}, {Skipped: 1}}},
			"b.mc": {Cached: true},
		},
	}
}

// TestAppendLoadRoundTrip: records append with monotonic Seq and read back
// in order with their content intact.
func TestAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	for i := 0; i < 3; i++ {
		if err := Append(path, testRecord(float64(i), int64(1000+i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i+1 {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if r.SkipRatePct != float64(i) {
			t.Errorf("record %d: skip %v, want %v", i, r.SkipRatePct, float64(i))
		}
	}
	for slot, want := range [][2]string{{"mem2reg", "cold-state"}, {"loadelim", "skipped-dormant"}} {
		row := &recs[0].Units["a.mc"].Passes[slot]
		if pass, reason := recs[0].PassName(slot, row), row.Reason(); pass != want[0] || reason != want[1] {
			t.Errorf("decision lost: slot %d pass %q, reason %q", slot, pass, reason)
		}
	}
	if !recs[1].Unit("b.mc").Cached {
		t.Error("cached flag lost")
	}
}

// TestRotation: the history is bounded — two segments, each rotated out when
// it ends on a multiple of the limit — never holds fewer than the newest
// limit records, and Seq keeps rising across rotations.
func TestRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	const limit = 5
	for i := 1; i <= limit*3; i++ {
		if err := Append(path, testRecord(float64(i), 1000), limit); err != nil {
			t.Fatal(err)
		}
		recs, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < min(i, limit) || len(recs) > 2*limit {
			t.Fatalf("after %d appends: %d records, want the newest %d at least and %d at most", i, len(recs), min(i, limit), 2*limit)
		}
		for k, r := range recs {
			if want := i - len(recs) + 1 + k; r.Seq != want {
				t.Fatalf("after %d appends: record %d has seq %d, want %d", i, k, r.Seq, want)
			}
		}
	}
	// Fifteen appends: the third segment is full, the second is the older
	// one, the first is gone.
	for file, want := range map[string]int{path: limit, OlderPath(path): limit} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, []byte("\n")); n != want {
			t.Errorf("%s has %d lines, want %d", filepath.Base(file), n, want)
		}
	}
	if recs, err := LoadLast(path, limit); err != nil || len(recs) != limit || recs[0].Seq != 2*limit+1 {
		t.Errorf("LoadLast(%d): %d records (err %v), want %d from seq %d", limit, len(recs), err, limit, 2*limit+1)
	}
}

// TestTornTrailingLine: a crash mid-append leaves a partial trailing line;
// the next Load drops it and the next Append still succeeds with a correct
// Seq — the recorder never wedges.
func TestTornTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	for i := 0; i < 2; i++ {
		if err := Append(path, testRecord(1, 1000), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the torn write: half a JSON object, no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"time_unix_ms":17`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn line not dropped: %d records, want 2", len(recs))
	}

	if err := Append(path, testRecord(2, 2000), 0); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after recovery append: %d records, want 3", len(recs))
	}
	if recs[2].Seq != 3 {
		t.Errorf("recovered seq %d, want 3", recs[2].Seq)
	}
	// The rewrite path must have purged the torn bytes entirely: every
	// remaining line parses as a full record.
	data, _ := os.ReadFile(path)
	for _, line := range bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n")) {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Errorf("torn bytes survived rewrite: line %q: %v", line, err)
		}
	}
}

// TestDeterministicEncoding: encoding the same record twice is
// byte-identical (maps inside are key-sorted by encoding/json).
func TestDeterministicEncoding(t *testing.T) {
	rec := testRecord(42, 1234)
	rec.Metrics = map[string]int64{}
	for _, k := range []string{"z.last", "a.first", "m.mid", "pass.runs", "decision.cold_state"} {
		rec.Metrics[k] = int64(len(k))
	}
	a, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of the same record differ")
	}
	// Sorted keys: a.first must appear before z.last in the output.
	if bytes.Index(a, []byte("a.first")) > bytes.Index(a, []byte("z.last")) {
		t.Error("metrics keys not sorted in encoding")
	}
}

// TestCheckRegress covers the three tripwires and the healthy path.
func TestCheckRegress(t *testing.T) {
	base := []Record{
		{Seq: 1, SkipRatePct: 60, TotalNS: 10e6},
		{Seq: 2, SkipRatePct: 62, TotalNS: 10e6},
	}
	// Healthy: small wobble.
	res, err := CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 58, TotalNS: 11e6}), RegressOptions{})
	if err != nil || res.Regressed {
		t.Fatalf("healthy history flagged: %+v err=%v", res, err)
	}
	// Skip-rate collapse.
	res, err = CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 10, TotalNS: 10e6}), RegressOptions{})
	if err != nil || !res.Regressed {
		t.Fatalf("skip-rate drop not flagged: %+v err=%v", res, err)
	}
	// Wall-time blowup.
	res, err = CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 61, TotalNS: 30e6}), RegressOptions{})
	if err != nil || !res.Regressed {
		t.Fatalf("wall-time rise not flagged: %+v err=%v", res, err)
	}
	// Skip-rate floor (CI smoke's "was a skip rate recorded at all").
	res, err = CheckRegress(append(base, Record{Seq: 3, SkipRatePct: 0.05, TotalNS: 1e6}),
		RegressOptions{SkipDropPts: 1000, MinSkipRatePct: 0.1})
	if err != nil || !res.Regressed {
		t.Fatalf("skip-rate floor not enforced: %+v err=%v", res, err)
	}
	// Too short.
	if _, err := CheckRegress(base[:1], RegressOptions{}); err == nil {
		t.Fatal("single-record history should error")
	}

	// Needs: the newest that-many records give the verdict the whole history
	// gives, and one fewer does not.
	var long []Record
	for seq := 1; seq <= 40; seq++ {
		long = append(long, Record{Seq: seq, SkipRatePct: float64(seq), TotalNS: int64(seq) * 1e6})
	}
	for _, opt := range []RegressOptions{{}, {Window: 3}, {Window: 3, MinRecords: 9}, {Window: 25, MinRecords: 40}} {
		n := opt.Needs()
		whole, err1 := CheckRegress(long, opt)
		tail, err2 := CheckRegress(long[len(long)-n:], opt)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(whole, tail) {
			t.Errorf("%+v: the newest %d records give %+v (err %v), all 40 give %+v (err %v)", opt, n, tail, err2, whole, err1)
		}
		if short, err := CheckRegress(long[len(long)-n+1:], opt); err == nil && reflect.DeepEqual(whole, short) {
			t.Errorf("%+v: Needs() = %d, but %d records give the same verdict", opt, n, n-1)
		}
	}
}

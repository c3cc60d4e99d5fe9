package history

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Three shapes a history file can hold a record in, oldest first, and what
// tells them apart in the bytes. testdata/ has the same three builds of a
// five-unit project in each: a cold build; an edit of two units, one of which
// panicked and was quarantined; an edit of one unit beside a shared-cache
// fetch, with a missed and a redundant footprint verdict. Each file was
// written by the code of its time, and each has a timeline envelope (workers,
// wall_ns, compile_wall_ns, link_ns) and an enqueue time ("q") per event,
// which builds no longer write. What loading any of them gives is the current
// shape: the newest file less the keys the end of
// TestThreeRecordShapesOneAnswer drops.
var recordShapes = []struct {
	file                  string
	skipEvents, rowReason bool
}{
	{"history_pr20.jsonl", true, true},   // an event and a Units entry per unit
	{"history_pr21.jsonl", false, true},  // scheduled events; {"cached":true} entries, pass and reason per row
	{"history_pr23.jsonl", false, false}, // decided units, a pipeline per record
}

// TestThreeRecordShapesOneAnswer: whichever shape a file is in, Load and
// LoadLast return the same records and explain, history and regress print the
// same text.
func TestThreeRecordShapesOneAnswer(t *testing.T) {
	type answers struct {
		recs []Record
		text map[string]string
	}
	var want answers
	for i, shape := range recordShapes {
		path := filepath.Join("testdata", shape.file)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if skip, reason := bytes.Contains(raw, []byte(`"o":"skip"`)), bytes.Contains(raw, []byte(`"reason":"`)); skip != shape.skipEvents ||
			reason != shape.rowReason || bytes.Contains(raw, []byte(`"cached_digest"`)) == reason ||
			bytes.Count(raw, []byte(`"timeline":{"workers":2,"wall_ns":`)) != 3 || !bytes.Contains(raw, []byte(`,"q":`)) {
			t.Fatalf("%s is not in the shape its name says", shape.file)
		}

		got := answers{text: map[string]string{}}
		if got.recs, err = Load(path); err != nil || len(got.recs) != 3 {
			t.Fatalf("%s: %d records, err %v", shape.file, len(got.recs), err)
		}
		for n := 1; n <= 4; n++ {
			last, err := LoadLast(path, n)
			if tail := got.recs[max(0, 3-n):]; err != nil || !reflect.DeepEqual(last, tail) {
				t.Errorf("%s: LoadLast(%d) is not the tail of Load (err %v)", shape.file, n, err)
			}
		}
		for upTo := 1; upTo <= 3; upTo++ {
			for _, unit := range []string{"", "main.mc", "src/a.mc", "src/b.mc", "src/d.mc"} {
				out, err := RenderExplain(got.recs[:upTo], unit)
				if err != nil {
					t.Fatal(err)
				}
				got.text["explain "+unit+" at build "+string(rune('0'+upTo))] = out
			}
		}
		got.text["history"] = RenderHistory(got.recs, 0)
		res, err := CheckRegress(got.recs, RegressOptions{SkipDropPts: 5})
		if err != nil {
			t.Fatal(err)
		}
		got.text["regress"] = res.String()

		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.recs, want.recs) {
			t.Errorf("%s loads to other records than %s:\n%+v\n%+v", shape.file, recordShapes[0].file, got.recs, want.recs)
		}
		for surface, text := range want.text {
			if got.text[surface] != text {
				t.Errorf("%s, %s:\n%s\nfrom %s:\n%s", shape.file, surface, got.text[surface], recordShapes[0].file, text)
			}
		}
	}

	// What the answer is. Build 3 lists the unit it compiled, the one it
	// fetched and the cached one the footprint check named; the other two are
	// a count and a digest, and still have an answer.
	last := want.recs[2]
	if listed := len(last.Units); listed != 3 || last.UnitsCached != 4 || last.UnitsRemote != 1 ||
		last.CachedDigest != CachedDigest([]string{"src/c.mc", "src/a.mc"}) {
		t.Errorf("build 3 lists %d units (%d cached, %d remote, digest %q)", listed, last.UnitsCached, last.UnitsRemote, last.CachedDigest)
	}
	if u := last.Unit("src/a.mc"); !u.Cached || u.Passes != nil {
		t.Errorf("build 3, a unit the record does not list: %+v, want cached", u)
	}
	row := &last.Units["src/b.mc"].Passes[3]
	if pass, reason := last.PassName(3, row), row.Reason(); pass != "inline" || reason != "fingerprint-mismatch" || row.Pass != "" {
		t.Errorf("build 3, src/b.mc slot 3: pass %q reason %q (stored %q)", pass, reason, row.Pass)
	}
	for surface, wantText := range map[string]string{
		"explain src/a.mc at build 3": "unit src/a.mc — cached (content hash unchanged, nothing recompiled)",
		"explain main.mc at build 3":  "unit main.mc — cached [FOOTPRINT MISSED",
		"explain  at build 3":         "2 more unit(s) — cached",
		"explain src/a.mc at build 2": "[PANICKED: isolated, compiled stateless] [QUARANTINED: panic]",
		"explain src/b.mc at build 3": "fingerprint-mismatch",
		"regress":                     "REGRESSION: skip rate dropped",
	} {
		if !strings.Contains(want.text[surface], wantText) {
			t.Errorf("%s lacks %q:\n%s", surface, wantText, want.text[surface])
		}
	}

	// The current shape is what loading gives: encoding the loaded records
	// reproduces the newest file byte for byte — less its rows' slot keys,
	// which restated each row's index; their blocks_memoized and
	// blocks_rehashed keys, which the fingerprint block
	// memo wrote until it was deleted; saved_ns, the estimate a dormancy
	// record's cost average fed until the average was deleted; each event's
	// enqueue time q, the compile phase's start for every job; and the
	// timeline's workers, wall_ns, compile_wall_ns and link_ns, copies of the
	// record's own keys, which stay. Loading drops them all.
	var again bytes.Buffer
	for i := range want.recs {
		line, err := want.recs[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		again.Write(append(line, '\n'))
	}
	newest, err := os.ReadFile(filepath.Join("testdata", recordShapes[2].file))
	if err != nil {
		t.Fatal(err)
	}
	for _, drop := range []struct{ key, pattern, keep string }{
		{"slot", `"slot":\d+,`, ""},
		{"blocks_memoized", `,"blocks_memoized":\d+`, ""},
		{"blocks_rehashed", `,"blocks_rehashed":\d+`, ""},
		{"saved_ns", `,"saved_ns":\d+`, ""},
		{"q", `,"q":\d+`, ""},
		{"workers and wall_ns", `"timeline":\{"workers":\d+,"wall_ns":\d+,`, `"timeline":{`},
		{"compile_wall_ns", `,"compile_wall_ns":\d+`, ""},
		{"timeline link_ns", `,"link_ns":\d+,"events":`, `,"events":`},
	} {
		dropped := regexp.MustCompile(drop.pattern)
		if !dropped.Match(newest) {
			t.Fatalf("%s has no %s keys to drop", recordShapes[2].file, drop.key)
		}
		newest = dropped.ReplaceAll(newest, []byte(drop.keep))
	}
	if !bytes.Equal(again.Bytes(), newest) {
		t.Errorf("loading and encoding %s changes it:\n%s", recordShapes[2].file, again.Bytes())
	}
}

// TestLoadKeepsWhatItCannotDerive: a row of an older record whose pass is
// not what the record's pipeline says keeps it. The row's slot and reason
// keys are not kept: its slot is its index and its reason what its counts say.
func TestLoadKeepsWhatItCannotDerive(t *testing.T) {
	line := []byte(`{"seq":1,"units_compiled":2,"units":{` +
		`"a.mc":{"compile_ns":5,"passes":[` +
		`{"pass":"mem2reg","slot":0,"reason":"cold-state","runs":1,"cold":1},` +
		`{"pass":"dce","slot":1,"reason":"ran","runs":1,"cold":1}]},` +
		`"b.mc":{"compile_ns":5,"passes":[` +
		`{"pass":"mem2reg","slot":0,"reason":"cold-state","runs":1,"cold":1},` +
		`{"pass":"gvn","slot":1,"reason":"cold-state","runs":1,"cold":1}]}}}`)
	got, ok := decodeLine(line)
	if !ok {
		t.Fatal("the record does not decode")
	}
	if !reflect.DeepEqual(got.Pipeline, []string{"mem2reg", "dce"}) {
		t.Errorf("pipeline %v, want that of the first unit by name", got.Pipeline)
	}
	a, b := got.Units["a.mc"].Passes, got.Units["b.mc"].Passes
	if a[0].Pass != "" || b[0].Pass != "" || a[1].Pass != "" {
		t.Errorf("derivable pass names kept: %+v %+v", a, b)
	}
	if a[1].Reason() != "cold-state" {
		t.Errorf("a row's reason is %q, not what its counts say", a[1].Reason())
	}
	if b[1].Pass != "gvn" || got.PassName(1, &b[1]) != "gvn" {
		t.Errorf("a pass name the pipeline does not give was dropped: %+v", b[1])
	}
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(again, []byte(`"slot"`)) || bytes.Contains(again, []byte(`"reason"`)) ||
		bytes.Count(again, []byte(`"pass"`)) != 1 {
		t.Errorf("the loaded record encodes to\n%s", again)
	}
}

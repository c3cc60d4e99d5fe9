package main

// Tests for the PR's observability surface on the daemon: the /metrics
// histogram exposition must reconcile exactly with the resident builder's
// registry, /dash must render the self-contained page, and the profile
// renderer must produce its sections from a recorded timeline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/testutil"
)

// TestServeMetricsHistograms round-trips the /metrics histogram lines
// through ParsePromHist and reconciles them bucket-for-bucket with the
// builder's own snapshot — the ISSUE acceptance check for the exposition.
func TestServeMetricsHistograms(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	parsed := obs.ParsePromHist(string(body))

	hists := srv.builder.Histograms()
	for _, name := range []string{obs.HistUnitCompileNS, obs.HistSkipDecisionNS, obs.HistBuildWallNS} {
		if _, ok := hists[name]; !ok {
			t.Errorf("builder registry missing histogram %s after a build", name)
		}
	}
	for name, want := range hists {
		got, ok := parsed[obs.PromName(name)]
		if !ok {
			if want.Count == 0 {
				continue // all-zero histograms are elided from the exposition
			}
			t.Errorf("/metrics missing histogram %s", name)
			continue
		}
		if got.Sum != want.Sum || got.Count != want.Count {
			t.Errorf("%s: /metrics sum/count %d/%d, registry %d/%d",
				name, got.Sum, got.Count, want.Sum, want.Count)
		}
		for i := range want.Buckets {
			if got.Buckets[i] != want.Buckets[i] {
				t.Errorf("%s: bucket %d: /metrics %d, registry %d", name, i, got.Buckets[i], want.Buckets[i])
			}
		}
	}
	// One build of one unit: both per-build histograms saw one observation.
	if c := parsed[obs.PromName(obs.HistBuildWallNS)].Count; c != 1 {
		t.Errorf("build.wall_ns count = %d after one build, want 1", c)
	}
	if c := parsed[obs.PromName(obs.HistUnitCompileNS)].Count; c != 1 {
		t.Errorf("unit.compile_ns count = %d after one compiled unit, want 1", c)
	}
}

func TestServeDash(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/dash status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("/dash content type %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{
		"last-build waterfall",
		"<svg",          // the gantt and sparklines render inline SVG
		"main.mc",       // the built unit appears as a waterfall row
		"critical path", // the analysis summary line
		"history window",
		"quarantined units",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/dash page missing %q", want)
		}
	}
	if strings.Contains(page, "<script") {
		t.Error("/dash page contains a script tag; it must stay JS-free")
	}
}

// TestRenderProfileSections drives the profile renderer over the record the
// test daemon just wrote and checks each advertised section appears.
func TestRenderProfileSections(t *testing.T) {
	srv := newTestServer(t)
	recs, err := history.Load(srv.histPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := pickTimelineRecord(recs, 0, srv.histPath)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := profileOf(rec)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	renderProfile(&buf, rec, cp)
	out := buf.String()
	for _, want := range []string{
		"compile waterfall", "critical path", "top wait causes", "worker utilization", "main.mc",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}

	j := profileJSON(rec, cp)
	for _, key := range []string{
		"seq", "workers", "wall_ns", "compile_wall_ns", "critical_path", "critical_total_ns",
		"longest_unit_ns", "queue_wait_ns", "starvation_ns", "worker_loads",
	} {
		if _, ok := j[key]; !ok {
			t.Errorf("profile JSON missing key %q", key)
		}
	}
	if total, longest := j["critical_total_ns"].(int64), j["longest_unit_ns"].(int64); total < longest || longest <= 0 {
		t.Errorf("critical_total_ns %d below longest_unit_ns %d", total, longest)
	}

	// -build selection: an explicit unknown sequence must error distinctly.
	if _, err := pickTimelineRecord(recs, 999, srv.histPath); err == nil {
		t.Error("pickTimelineRecord accepted an unknown build sequence")
	}

	// A bar fills cells for a non-empty interval only: an idle worker's row
	// is all dots.
	for _, iv := range [][2]int64{{0, 0}, {37, 37}, {100, 100}} {
		if got := bar(iv[0], iv[1], 100); strings.ContainsRune(got, '█') {
			t.Errorf("bar(%d, %d, 100) = %s: an empty interval fills a cell", iv[0], iv[1], got)
		}
	}
	if got := bar(0, 1, 100); !strings.HasPrefix(got, "|█·") {
		t.Errorf("bar(0, 1, 100) = %s: a short interval fills no cell", got)
	}
}

// TestBothRecordShapesRenderAlike: history files hold records written before
// PR 21 — a "skip" timeline event for every cached unit — and before PR 23 — a
// table entry for every cached unit, a pass name and a reason in every
// decision row — until they rotate out. Read back from a file, such a record
// and the record the same build writes today are the same record, and
// validate, analyze and render to the same bytes on every surface that shows
// a build.
func TestBothRecordShapesRenderAlike(t *testing.T) {
	// readBack is rec as a reader gets it: one line of a history file.
	readBack := func(rec *history.Record, seq int) *history.Record {
		t.Helper()
		rec.Seq = seq
		line, err := rec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), history.FileName)
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := history.LoadLast(path, 1)
		if err != nil || len(recs) != 1 {
			t.Fatalf("%d records, err %v", len(recs), err)
		}
		return &recs[0]
	}
	render := func(rec *history.Record) map[string]string {
		t.Helper()
		cp, err := profileOf(rec)
		if err != nil {
			t.Fatal(err)
		}
		var profile, gantt strings.Builder
		renderProfile(&profile, rec, cp)
		dashGantt(&gantt, rec)
		pj, err := json.Marshal(profileJSON(rec, cp))
		if err != nil {
			t.Fatal(err)
		}
		explain, err := history.RenderExplain([]history.Record{*rec}, "")
		if err != nil {
			t.Fatal(err)
		}
		return map[string]string{
			"profile": profile.String(), "profile -json": string(pj), "/dash waterfall": gantt.String(),
			"explain": explain, "history": history.RenderHistory([]history.Record{*rec}, 0),
		}
	}
	// same takes one build in the three shapes, oldest first.
	same := func(seq int, mustShow string, shapes ...*history.Record) {
		t.Helper()
		if v1, v2, now := shapes[0], shapes[1], shapes[2]; len(v1.Timeline.Events) <= len(v2.Timeline.Events) ||
			len(v2.Units) <= len(now.Units) || len(v2.Units) != len(v1.Units) {
			t.Fatalf("case is wrong about itself: %d, %d, %d events and %d, %d, %d units in the tables",
				len(v1.Timeline.Events), len(v2.Timeline.Events), len(now.Timeline.Events), len(v1.Units), len(v2.Units), len(now.Units))
		}
		now := readBack(shapes[2], seq)
		want := render(now)
		for i, old := range shapes[:2] {
			old = readBack(old, seq)
			if !reflect.DeepEqual(old, now) {
				t.Errorf("build %d: shape %d reads back as another record than today's:\n%+v\n%+v", seq, i+1, old, now)
			}
			for surface, got := range render(old) {
				if got != want[surface] {
					t.Errorf("build %d, %s differs between shape %d and today's:\n old %s\n new %s", seq, surface, i+1, got, want[surface])
				}
			}
		}
		if !strings.Contains(want["/dash waterfall"], mustShow) {
			t.Errorf("build %d: /dash waterfall lacks %q:\n%s", seq, mustShow, want["/dash waterfall"])
		}
	}

	for _, seq := range []int{1, 34, 200} {
		same(seq, "2 scheduled, 206 cache skips",
			testutil.HistoryRecordV1(seq), testutil.HistoryRecordV2(seq), testutil.HistoryRecord(seq))
	}

	// A build that compiled nothing: the oldest shape has an event and an
	// entry per unit, the next an entry, today's neither, and the count shown
	// is the record's own.
	var names []string
	for name := range testutil.HistoryRecordV1(7).Units {
		names = append(names, name)
	}
	sort.Strings(names)
	cached := func(rec *history.Record, shape int) *history.Record {
		rec.UnitsCompiled, rec.UnitsCached = 0, len(names)
		rec.Units, rec.Pipeline, rec.Timeline.Events = map[string]history.UnitRecord{}, nil, []obs.UnitEvent{}
		for i, name := range names {
			if shape < 3 {
				rec.Units[name] = history.UnitRecord{Cached: true}
			}
			if shape == 1 {
				at := int64(1000 * i)
				rec.Timeline.Events = append(rec.Timeline.Events, obs.UnitEvent{
					Unit: name, Worker: -1, Outcome: "skip", StartNS: at, EndNS: at + 900})
			}
		}
		if shape == 3 {
			rec.CachedDigest = history.CachedDigest(names)
		}
		return rec
	}
	same(7, "fully cached build (208 skips)",
		cached(testutil.HistoryRecordV1(7), 1), cached(testutil.HistoryRecordV2(7), 2), cached(testutil.HistoryRecord(7), 3))
}

// TestReadersTakeTheNewestRecords: over a history of 60 builds, the surfaces
// that show the newest few read those — /builds?n= the n asked for (every
// record for no n or a bad one), /dash its window, `profile` the newest or
// the build it was asked for, wherever sequence numbers put it.
func TestReadersTakeTheNewestRecords(t *testing.T) {
	const builds = 60
	srv := newTestServer(t)
	if err := os.WriteFile(srv.histPath, testutil.HistoryFile(builds), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	get := func(url string) []byte {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != 200 {
			t.Fatalf("%s: status %d, err %v", url, res.StatusCode, err)
		}
		return body
	}

	for url, want := range map[string][2]int{ // first and last Seq served
		"/builds?n=3": {builds - 2, builds}, "/builds?n=1": {builds, builds}, "/builds?n=500": {1, builds},
		"/builds": {1, builds}, "/builds?n=x": {1, builds}, "/builds?n=-2": {1, builds}, "/builds?n=0": {1, builds},
	} {
		var recs []history.Record
		if err := json.Unmarshal(get(url), &recs); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if len(recs) != want[1]-want[0]+1 || recs[0].Seq != want[0] || recs[len(recs)-1].Seq != want[1] {
			t.Errorf("%s served %d records, want Seq %d to %d", url, len(recs), want[0], want[1])
		}
	}

	page := string(get("/dash"))
	for _, want := range []string{
		fmt.Sprintf("build <b>#%d</b>", builds),
		fmt.Sprintf("history window (%d builds)", dashWindow),
		"2 scheduled, 206 cache skips",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/dash page missing %q", want)
		}
	}

	for _, seq := range []int{0, builds, builds - 1, 17, 1} {
		want := seq
		if seq == 0 {
			want = builds // the newest
		}
		rec, err := loadTimelineRecord(srv.histPath, seq)
		if err != nil || rec.Seq != want {
			t.Errorf("profile -build %d: record %v, err %v; want Seq %d", seq, rec, err, want)
		}
	}
	if _, err := loadTimelineRecord(srv.histPath, builds+1); err == nil || !strings.Contains(err.Error(), "no record with seq") {
		t.Errorf("profile -build %d: err %v, want no such record", builds+1, err)
	}
	// Sequence numbers with a hole (records 21 to 40 cut out): counting back
	// from the newest misses build 17, reading the whole file finds it.
	lines := bytes.SplitAfter(testutil.HistoryFile(builds), []byte("\n"))
	if err := os.WriteFile(srv.histPath, bytes.Join(append(lines[:20:20], lines[40:]...), nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if rec, err := loadTimelineRecord(srv.histPath, 17); err != nil || rec.Seq != 17 {
		t.Errorf("profile -build 17 over a history with a hole: record %v, err %v", rec, err)
	}
}

// TestThreeRecordShapesOnEverySurface: the three histories under
// internal/history/testdata — the same three builds in three shapes older
// code wrote — give the same bytes on /builds?n=, /dash and `profile`, and
// `explain` knows the same units in each. What is served is the current
// shape, whose timeline holds nothing the record has already.
func TestThreeRecordShapesOnEverySurface(t *testing.T) {
	srv := newTestServer(t)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	get := func(url string) string {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil || res.StatusCode != 200 {
			t.Fatalf("%s: status %d, err %v", url, res.StatusCode, err)
		}
		return string(body)
	}

	var first string
	var want map[string]string
	for _, file := range []string{"history_pr20.jsonl", "history_pr21.jsonl", "history_pr23.jsonl"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "history", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(srv.histPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, url := range []string{"/builds", "/builds?n=1", "/builds?n=2", "/dash"} {
			got[url] = get(url)
		}
		for seq := 0; seq <= 3; seq++ {
			rec, err := loadTimelineRecord(srv.histPath, seq)
			if err != nil {
				t.Fatalf("%s: profile -build %d: %v", file, seq, err)
			}
			cp, err := profileOf(rec)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			var text strings.Builder
			renderProfile(&text, rec, cp)
			pj, err := json.Marshal(profileJSON(rec, cp))
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("profile -build %d", seq)] = text.String()
			got[fmt.Sprintf("profile -build %d -json", seq)] = string(pj)
		}
		recs, err := history.LoadLast(srv.histPath, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Listed by build 3, listed by build 2 only, listed by neither.
		for _, unit := range []string{"src/b.mc", "src/c.mc", "src/e.mc"} {
			got["explain knows "+unit] = fmt.Sprint(unitKnown(recs, filepath.Dir(srv.histPath), unit))
		}

		if want == nil {
			first, want = file, got
			continue
		}
		for surface, text := range want {
			if got[surface] != text {
				t.Errorf("%s on %s:\n%s\non %s:\n%s", surface, file, got[surface], first, text)
			}
		}
	}
	for surface, text := range map[string]string{
		"/dash":                  "2 scheduled, 3 cache skips",
		"profile -build 3":       "1 compiled, 4 cached",
		"profile -build 3 -json": `"pass":"inline"`,
		"/builds?n=1":            `"cached_digest":"`,
		"explain knows src/b.mc": "true", "explain knows src/c.mc": "true", "explain knows src/e.mc": "false",
	} {
		if !strings.Contains(want[surface], text) {
			t.Errorf("%s lacks %q:\n%s", surface, text, want[surface])
		}
	}
	for _, key := range []string{`"reason"`, `"o":"skip"`, `"q":`, `"wall_ns"`, `"compile_wall_ns"`, `"timeline":{"workers"`} {
		if strings.Contains(want["/builds"], key) {
			t.Errorf("/builds serves what a reader derives (%s):\n%s", key, want["/builds"])
		}
	}
}

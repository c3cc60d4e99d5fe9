package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety: every entry point must be a no-op on nil receivers — the
// "observability disabled" state the whole stack relies on.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Emit(Span{Name: "x"})
	if tr.Now() != 0 || tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer not inert")
	}

	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter not inert")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Snapshot() != nil || r.Names() != nil || r.Pass() != nil {
		t.Error("nil registry not inert")
	}

	var s *Sink
	if s.Trace() != nil || s.PassCtrs() != nil || s.ThreadID() != 0 {
		t.Error("nil sink not inert")
	}
}

// TestCountersConcurrent: concurrent adds through shared and freshly
// resolved counter pointers must not lose updates (run under -race by the
// Makefile ci gate).
func TestCountersConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				reg.Counter("resolved-each-time").Add(2)
			}
		}()
	}
	wg.Wait()
	snap := reg.Snapshot()
	if snap["shared"] != workers*perWorker {
		t.Errorf("shared = %d, want %d", snap["shared"], workers*perWorker)
	}
	if snap["resolved-each-time"] != 2*workers*perWorker {
		t.Errorf("resolved-each-time = %d, want %d", snap["resolved-each-time"], 2*workers*perWorker)
	}
}

// TestRegistryIdentity: the same name resolves to the same counter.
func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	a, b := reg.Counter("x"), reg.Counter("x")
	if a != b {
		t.Error("same name resolved to different counters")
	}
	a.Add(3)
	if b.Load() != 3 {
		t.Error("aliased counters disagree")
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "x" {
		t.Errorf("names = %v", names)
	}
}

// TestTracerConcurrentEmit: spans from many goroutines all land.
func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				start := tr.Now()
				tr.Emit(Span{Name: "s", Cat: CatPass, TID: tid, Start: start, Slot: i})
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != workers*per {
		t.Errorf("spans = %d, want %d", tr.Len(), workers*per)
	}
}

// TestWriteChrome: the export must be a single valid JSON object with one
// complete event per span plus metadata, and counters under otherData.
func TestWriteChrome(t *testing.T) {
	spans := []Span{
		{Name: "build", Cat: CatBuild, TID: 0, Start: 0, Dur: 5e6},
		{Name: "unit main.mc", Cat: CatUnit, Unit: "main.mc", TID: 1, Start: 1e5, Dur: 4e6},
		{Name: "pass:gvn", Cat: CatPass, Unit: "main.mc", TID: 1, Start: 2e5, Dur: 1e6,
			Slot: 8, Runs: 3, Skipped: 2, Dormant: 1, Hashes: 4, HashNS: 1e4},
	}
	counters := map[string]int64{CtrPassRuns: 3, CtrPassSkipped: 2}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans, counters); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]int64 `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != len(spans) {
		t.Errorf("complete events = %d, want %d", complete, len(spans))
	}
	if meta < 2 { // process_name + at least one thread_name
		t.Errorf("metadata events = %d, want >= 2", meta)
	}
	if doc.OtherData[CtrPassRuns] != 3 {
		t.Errorf("otherData lost counters: %v", doc.OtherData)
	}
	// The pass span keeps its slot detail in args, microseconds in ts/dur.
	for _, ev := range doc.TraceEvents {
		if ev.Name != "pass:gvn" {
			continue
		}
		if ev.Dur != 1e3 { // 1e6 ns = 1e3 us
			t.Errorf("pass dur = %v us, want 1000", ev.Dur)
		}
		if ev.Args["runs"] != float64(3) || ev.Args["skipped"] != float64(2) {
			t.Errorf("pass args = %v", ev.Args)
		}
	}
}

// TestMetricsRoundTrip: FormatMetrics is sorted, fenced, and parseable.
func TestMetricsRoundTrip(t *testing.T) {
	snap := map[string]int64{"b.two": 2, "a.one": 1, "c.three": -3}
	s := FormatMetrics(snap)
	if !strings.HasPrefix(s, MetricsHeader+"\n") || !strings.HasSuffix(s, MetricsFooter+"\n") {
		t.Fatalf("block not fenced:\n%s", s)
	}
	if strings.Index(s, "a.one") > strings.Index(s, "b.two") {
		t.Error("block not sorted")
	}
	back := ParseMetrics("noise before\n" + s + "noise after\n")
	if len(back) != len(snap) {
		t.Fatalf("round trip lost entries: %v", back)
	}
	for k, v := range snap {
		if back[k] != v {
			t.Errorf("%s = %d, want %d", k, back[k], v)
		}
	}
}

// TestDerivedRates: the skip rate formula.
func TestDerivedRates(t *testing.T) {
	if r := SkipRate(map[string]int64{CtrPassRuns: 3, CtrPassSkipped: 1}); r != 0.25 {
		t.Errorf("SkipRate = %v, want 0.25", r)
	}
	if r := SkipRate(nil); r != 0 {
		t.Errorf("SkipRate(nil) = %v", r)
	}
}

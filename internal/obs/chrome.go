package obs

// Chrome trace_event exporter. The output is the JSON object format
// understood by chrome://tracing and https://ui.perfetto.dev: complete
// ("ph":"X") events with microsecond timestamps, thread-name metadata so
// workers render as labelled rows, and the counters snapshot under
// otherData for machine consumption.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level document.
type chromeTrace struct {
	TraceEvents     []chromeEvent    `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]int64 `json:"otherData,omitempty"`
}

// WriteChrome serializes spans (and an optional counters snapshot) as a
// Chrome-loadable trace. Spans keep their recording order; timestamps are
// converted from epoch-relative nanoseconds to microseconds.
func WriteChrome(w io.Writer, spans []Span, counters map[string]int64) error {
	doc := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(spans)+8),
		DisplayTimeUnit: "ms",
		OtherData:       counters,
	}

	// Thread-name metadata: one row per distinct TID.
	tids := map[int]bool{}
	for _, sp := range spans {
		tids[sp.TID] = true
	}
	order := make([]int, 0, len(tids))
	for tid := range tids {
		order = append(order, tid)
	}
	sort.Ints(order)
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "statefulcc"},
	})
	for _, tid := range order {
		name := "build"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}

	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Cat:  sp.Cat,
			Ph:   "X",
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			PID:  1,
			TID:  sp.TID,
		}
		if sp.Unit != "" || sp.Cat == CatPass {
			args := make(map[string]any, 6)
			if sp.Unit != "" {
				args["unit"] = sp.Unit
			}
			if sp.Cat == CatPass {
				args["slot"] = sp.Slot
				args["runs"] = sp.Runs
				args["skipped"] = sp.Skipped
				args["dormant"] = sp.Dormant
				if sp.Replayed > 0 {
					args["replayed"] = sp.Replayed
				}
				if sp.Hashes > 0 {
					args["hashes"] = sp.Hashes
					args["hash_us"] = float64(sp.HashNS) / 1e3
				}
			}
			ev.Args = args
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}

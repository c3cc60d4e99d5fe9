package testutil

import (
	"bytes"
	"fmt"

	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

// historyPipeline is the standard pipeline's slots, the rows of a compiled
// unit's decision table.
var historyPipeline = []string{
	"mem2reg", "simplifycfg", "instcombine", "sccp", "simplifycfg", "dce",
	"inline", "instcombine", "gvn", "simplifycfg", "licm", "unroll",
	"instcombine", "sccp", "strength", "gvn", "loadelim", "dse", "dce",
	"simplifycfg", "globalopt", "deadfunc",
}

// historyCounters is the counters snapshot a stateful builder with a state
// directory records (internal/obs).
var historyCounters = []string{
	"audit.sampled", "audit.unsound", "build.cancelled", "build.count",
	"build.link_ns", "build.panic", "build.units_cached", "build.units_compiled",
	"decision.cold_state", "decision.fingerprint_mismatch", "decision.not_dormant",
	"decision.policy_disabled", "decision.quarantined",
	"fingerprint.hash_ns", "fingerprint.hashes", "footprint.checked", "footprint.missed",
	"footprint.redundant", "fullcache.hits", "fullcache.misses", "history.io_error", "pass.dormant",
	"pass.run_ns", "pass.runs", "pass.skipped",
	"quarantine.engaged", "quarantine.lifted", "stage.codegen_ns", "stage.frontend_ns",
	"stage.passes_ns", "state.io_error", "state.load_misses", "state.loads",
	"state.save_unchanged", "state.saves", "worker.busy_ns",
}

// HistoryRecord is a flight-recorder record with the shape of one megarepo
// edit-loop build (≈ 4 KB encoded): 208 units of which two compiled, listed
// each with the full 22-slot decision table and a timeline event, the other
// 206 as a count and a digest, and the counters snapshot. The same seq gives
// the same record; Seq itself is left for history.Append to assign.
func HistoryRecord(seq int) *history.Record {
	return historyRecord(seq, 3)
}

// HistoryRecordV1 is the same build as HistoryRecord(seq) in the shape
// records had until PR 21 (≈ 24 KB): a "skip" timeline event on worker -1
// and a {"cached":true} entry for each of the 206 units served from the
// object cache, and the pass name in every decision row (those records also
// stored a row's slot and reason, which readers ignore and a core.SlotStats
// row cannot carry; internal/history/testdata has them). History files hold
// such records until they rotate out; readers must show all shapes alike.
func HistoryRecordV1(seq int) *history.Record {
	return historyRecord(seq, 1)
}

// HistoryRecordV2 is the same build in the shape of PR 21 and 22 (≈ 11 KB):
// HistoryRecordV1 without the "skip" events.
func HistoryRecordV2(seq int) *history.Record {
	return historyRecord(seq, 2)
}

func historyRecord(seq, shape int) *history.Record {
	const units = 208
	n := int64(seq)
	rec := &history.Record{
		TimeUnixMS:    1790000000000 + 170*n,
		Mode:          "stateful",
		Workers:       2,
		TotalNS:       5700000 + 1009*n,
		CompileNS:     2300000 + 503*n,
		LinkNS:        1600000 + 251*n,
		UnitsCompiled: 2,
		UnitsCached:   units - 2,
		StateBytes:    136000 + seq,
		SkipRatePct:   23 + float64(seq%100)/7,
		Metrics:       make(map[string]int64, len(historyCounters)),
		Units:         make(map[string]history.UnitRecord, units),
		Timeline: &obs.Timeline{
			CompileStartNS: 1720000 + n,
			Events:         make([]obs.UnitEvent, 0, units),
		},
	}
	if shape == 3 {
		rec.Pipeline = historyPipeline
	}
	for i, name := range historyCounters {
		rec.Metrics[name] = n * int64(i*i*977+i)
	}
	// Which two units this build edited moves with seq, as in an edit loop.
	edited := [2]int{1 + seq%(units-1), 1 + (seq*7+3)%(units-1)}
	if edited[1] == edited[0] {
		edited[1] = 1 + edited[0]%(units-1)
	}
	var cached []string
	for u := 0; u < units; u++ {
		name := "main.mc"
		if u > 0 {
			name = fmt.Sprintf("src/lib_%03d.mc", u-1)
		}
		at := 60000 + 5000*int64(u) + n
		if u != edited[0] && u != edited[1] {
			cached = append(cached, name)
			if shape < 3 {
				rec.Units[name] = history.UnitRecord{Cached: true}
			}
			if shape == 1 {
				rec.Timeline.Events = append(rec.Timeline.Events, obs.UnitEvent{
					Unit: name, Worker: -1, Outcome: "skip", StartNS: at, EndNS: at + 4100})
			}
			continue
		}
		ur := history.UnitRecord{CompileNS: 1400000 + 31*n}
		for slot, pass := range historyPipeline {
			k := int64(slot + 1)
			row := core.SlotStats{
				Module: pass == "inline" || pass == "globalopt" || pass == "deadfunc",
				Runs:   3 + slot%3, Skipped: slot % 4, NotDormant: 3 + slot%3,
				RunNS: 10000*k + n,
			}
			if shape < 3 {
				row.Pass = pass
			}
			ur.Passes = append(ur.Passes, row)
		}
		rec.Units[name] = ur
		// One worker each, inside the compile phase (obs.Timeline.Validate).
		worker, start := 0, 1740000+1000*int64(u)+n
		if u == edited[1] {
			worker = 1
		}
		rec.Timeline.Events = append(rec.Timeline.Events, obs.UnitEvent{
			Unit: name, Worker: worker, Outcome: "compile", StartNS: start,
			EndNS: start + ur.CompileNS, FrontendNS: 350000 + n, PassesNS: 1000000 + n, CodegenNS: 22000 + n})
	}
	if shape == 3 {
		rec.CachedDigest = history.CachedDigest(cached)
	}
	return rec
}

// HistoryFile is the bytes of a history file holding records 1..n of
// HistoryRecord as canonical lines — what n appends under a limit of at
// least n leave behind, without n builds or n reads of the file.
func HistoryFile(n int) []byte {
	var file bytes.Buffer
	for seq := 1; seq <= n; seq++ {
		rec := HistoryRecord(seq)
		rec.Seq = seq
		line, err := rec.Encode()
		if err != nil {
			panic(err) // a Record of plain values always encodes
		}
		file.Write(line)
		file.WriteByte('\n')
	}
	return file.Bytes()
}

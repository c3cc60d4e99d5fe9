package buildsys

// Flight-recorder integration: after every successful Build, one
// internal/history record — build timings, the counters-registry snapshot,
// the per-slot decision provenance of each unit the build decided, and the
// scheduled part of the timeline (Report.Units and Report.Timeline keep an
// entry for every unit; the record one for every unit the build did
// something about, and a count and a digest for the rest) — is appended to
// the state directory. Recording is advisory: it is skipped without a
// destination and append failures never fail a build.

import (
	"time"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

// historyPath resolves the flight-recorder destination: an explicit
// Options.HistoryPath wins, "-" disables, and otherwise a configured state
// directory implies its history.jsonl.
func (b *Builder) historyPath() string {
	switch {
	case b.opts.HistoryPath == "-":
		return ""
	case b.opts.HistoryPath != "":
		return b.opts.HistoryPath
	case b.opts.StateDir != "":
		return history.Path(b.opts.StateDir)
	}
	return ""
}

// recordHistory appends one record for a completed build, timed by a
// history.append span. Failures never fail the build, but they are surfaced
// — history.io_error counter plus a report warning — instead of silently
// dropping the record. (The counter, like history.tail_reads, increments
// after this build's Metrics snapshot was taken, so it shows up in
// Builder.Metrics and the next build's record.)
func (b *Builder) recordHistory(rep *Report) {
	if b.recorder == nil {
		return
	}
	start := b.opts.Trace.Now()
	err := b.recorder.Append(b.historyRecord(rep))
	b.opts.Trace.Emit(obs.Span{Name: "history.append", Cat: obs.CatBuild, TID: 0,
		Start: start, Dur: b.opts.Trace.Now() - start})
	if err != nil {
		b.ctr.historyIOErrors.Inc()
		b.warnf("history: append: %v (flight-recorder record dropped)", err)
	}
}

// historyRecord converts a build report into its flight-recorder record:
// every unit's outcome as the report has it, brought to the shape records
// have on disk — decided units only — by the function that defines that
// shape for readers too.
func (b *Builder) historyRecord(rep *Report) *history.Record {
	rec := &history.Record{
		TimeUnixMS:    time.Now().UnixMilli(),
		Mode:          b.opts.Mode.String(),
		Workers:       b.opts.Workers,
		TotalNS:       rep.TotalNS,
		CompileNS:     rep.CompileNS,
		LinkNS:        rep.LinkNS,
		UnitsCompiled: rep.UnitsCompiled,
		UnitsCached:   rep.UnitsCached,
		UnitsRemote:   rep.UnitsRemote,
		StateBytes:    rep.StateBytes,
		SkipRatePct:   100 * obs.SkipRate(rep.Metrics),
		Metrics:       rep.Metrics,
		Units:         make(map[string]history.UnitRecord, len(rep.Units)),
		Timeline:      history.TimelineFromObs(rep.Timeline),

		FootprintMissed:    rep.FootprintMissed,
		FootprintRedundant: rep.FootprintRedundant,
	}
	for name, ur := range rep.Units {
		u := history.UnitRecord{
			Cached:     !ur.Compiled,
			CompileNS:  ur.CompileNS,
			Panicked:   ur.Panicked,
			Quarantine: ur.Quarantine,
			Remote:     ur.Remote,
		}
		for slot := range ur.Slots {
			sl := &ur.Slots[slot]
			u.Passes = append(u.Passes, history.PassDecision{
				Pass:        sl.Pass,
				Slot:        slot,
				Module:      sl.Module,
				Runs:        sl.Runs,
				Dormant:     sl.Dormant,
				Skipped:     sl.Skipped,
				Cold:        sl.Cold,
				NotDormant:  sl.NotDormant,
				FPMismatch:  sl.FPMismatch,
				Policy:      sl.Policy,
				Quarantined: sl.Quarantined,
				Audited:     sl.Audited,
				Unsound:     sl.Unsound,
				RunNS:       sl.RunNS,
			})
		}
		rec.Units[name] = u
	}
	rec.Normalize()
	return rec
}

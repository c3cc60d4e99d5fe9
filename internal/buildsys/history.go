package buildsys

// Flight-recorder integration: after every successful Build, the build's
// report's Record — build timings, the counters-registry snapshot, the
// per-slot decision provenance of each unit the build decided, and the
// timeline of the units that occupied a worker, filled by Build in the shape
// records are stored in — is appended to the state directory as it is.
// Recording is advisory: it is skipped without a destination and append
// failures never fail a build.

import (
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
	err := b.recorder.Append(&rep.Record)
	b.opts.Trace.Emit(obs.Span{Name: "history.append", Cat: obs.CatBuild, TID: 0,
		Start: start, Dur: b.opts.Trace.Now() - start})
	if err != nil {
		b.ctr.historyIOErrors.Inc()
		b.warnf("history: append: %v (flight-recorder record dropped)", err)
	}
}

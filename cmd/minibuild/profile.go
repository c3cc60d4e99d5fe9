package main

// minibuild profile — the critical-path build profiler. It replays a
// flight-recorder record's scheduling timeline (internal/history) through
// the critical-path analysis (internal/obs) and renders:
//
//   - a waterfall table of the compile phase (per unit: worker, start
//     offset, duration bar);
//   - the critical chain — the unit sequence that bounded the build's wall
//     time — with per-pass time attribution from the record's decision
//     tables; and
//   - the wait blame: queue wait vs worker starvation, plus a per-worker
//     utilization table.
//
// -build N selects a record by sequence number (default: the newest record
// that carries a timeline); -json emits the analysis machine-readably (the
// `make profile-smoke` CI check parses it).

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

func runProfile(args []string) error {
	fs := flag.NewFlagSet("minibuild profile", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	buildSeq := fs.Int("build", 0, "record sequence number to profile (0 = newest with a timeline)")
	asJSON := fs.Bool("json", false, "emit the analysis as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := loadTimelineRecord(history.Path(resolveStateDir(*dir, *cache)), *buildSeq)
	if err != nil {
		return err
	}
	cp, err := profileOf(rec)
	if err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(profileJSON(rec, cp))
	}
	renderProfile(os.Stdout, rec, cp)
	return nil
}

// profileOf validates a record's timeline against the record's worker count
// and phase times, and analyzes it.
func profileOf(rec *history.Record) (*obs.CritPath, error) {
	if err := rec.Timeline.Validate(rec.Workers, rec.TotalNS, rec.CompileNS, rec.LinkNS); err != nil {
		return nil, fmt.Errorf("build %d: corrupt timeline: %w", rec.Seq, err)
	}
	return obs.Analyze(rec.Timeline, rec.Workers, rec.CompileNS), nil
}

// loadTimelineRecord reads as much of the history as it takes to find the
// record to profile: the newest record alone when that is the one, the
// records back to build seq when sequence numbers run without gaps, and the
// whole file when either guess misses (or to say what is wrong with it).
func loadTimelineRecord(path string, seq int) (*history.Record, error) {
	recs, err := history.LoadLast(path, 1)
	if err != nil {
		return nil, err
	}
	if len(recs) == 1 && seq <= recs[0].Seq {
		if back := recs[0].Seq - seq; seq > 0 && back > 0 {
			if recs, err = history.LoadLast(path, back+1); err != nil {
				return nil, err
			}
		}
		if rec, err := pickTimelineRecord(recs, seq, path); err == nil {
			return rec, nil
		}
	}
	if recs, err = history.Load(path); err != nil {
		return nil, err
	}
	return pickTimelineRecord(recs, seq, path)
}

// pickTimelineRecord selects the record to profile: an explicit -build N,
// or the newest record carrying a timeline.
func pickTimelineRecord(recs []history.Record, seq int, path string) (*history.Record, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("no build history at %s (run a build first)", path)
	}
	if seq > 0 {
		for i := range recs {
			if recs[i].Seq == seq {
				if recs[i].Timeline == nil {
					return nil, fmt.Errorf("build %d has no scheduling timeline (recorded before the profiler existed?)", seq)
				}
				return &recs[i], nil
			}
		}
		return nil, fmt.Errorf("no record with seq %d in %s", seq, path)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Timeline != nil {
			return &recs[i], nil
		}
	}
	return nil, fmt.Errorf("no record in %s carries a scheduling timeline (rebuild with this version first)", path)
}

// profileJSON shapes the analysis for -json output.
func profileJSON(rec *history.Record, cp *obs.CritPath) map[string]any {
	chain := make([]map[string]any, 0, len(cp.Chain))
	for _, l := range cp.Chain {
		link := map[string]any{
			"unit": l.Unit, "worker": l.Worker, "outcome": l.Outcome,
			"start_ns": l.StartNS, "end_ns": l.EndNS, "self_ns": l.SelfNS,
		}
		if l.WaitNS > 0 {
			link["wait_ns"] = l.WaitNS
			link["wait_cause"] = l.WaitCause
		}
		if passes := passAttribution(rec, l.Unit, 0); len(passes) > 0 {
			link["passes"] = passes
		}
		chain = append(chain, link)
	}
	workers := make([]map[string]any, 0, len(cp.Workers))
	for _, wl := range cp.Workers {
		workers = append(workers, map[string]any{
			"worker": wl.Worker, "units": wl.Units,
			"busy_ns": wl.BusyNS, "idle_ns": wl.IdleNS,
			"longest_gap_ns": wl.LongestGapNS, "utilization_pct": wl.UtilizationPct,
		})
	}
	return map[string]any{
		"seq": rec.Seq, "mode": rec.Mode, "workers": rec.Workers,
		"wall_ns": rec.TotalNS, "compile_wall_ns": rec.CompileNS, "link_ns": rec.LinkNS,
		"units_compiled": rec.UnitsCompiled, "units_cached": rec.UnitsCached,
		"critical_path":     chain,
		"critical_path_ns":  cp.PathNS,
		"critical_total_ns": cp.TotalNS,
		"longest_unit":      cp.LongestUnit,
		"longest_unit_ns":   cp.LongestUnitNS,
		"queue_wait_ns":     cp.QueueWaitNS,
		"starvation_ns":     cp.StarvationNS,
		"worker_loads":      workers,
	}
}

// passAttribution returns unit's per-pass execution times from the
// record's decision table, largest first (top bounds the list; 0 = all).
func passAttribution(rec *history.Record, unit string, top int) []map[string]any {
	u, ok := rec.Units[unit]
	if !ok {
		return nil
	}
	type pt struct {
		pass string
		ns   int64
	}
	var pts []pt
	for slot := range u.Passes {
		if row := &u.Passes[slot]; row.RunNS > 0 {
			pts = append(pts, pt{rec.PassName(slot, row), row.RunNS})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].ns != pts[j].ns {
			return pts[i].ns > pts[j].ns
		}
		return pts[i].pass < pts[j].pass
	})
	if top > 0 && len(pts) > top {
		pts = pts[:top]
	}
	out := make([]map[string]any, 0, len(pts))
	for _, p := range pts {
		out = append(out, map[string]any{"pass": p.pass, "run_ns": p.ns})
	}
	return out
}

// waterfallWidth is the bar width of the waterfall/utilization charts.
const waterfallWidth = 40

// waterfall returns a timeline's events rebased to the compile phase start,
// in start order (ties broken on unit name).
func waterfall(tl *obs.Timeline) []obs.UnitEvent {
	sched := make([]obs.UnitEvent, len(tl.Events))
	for i, e := range tl.Events {
		e.StartNS -= tl.CompileStartNS
		e.EndNS -= tl.CompileStartNS
		sched[i] = e
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].StartNS != sched[j].StartNS {
			return sched[i].StartNS < sched[j].StartNS
		}
		return sched[i].Unit < sched[j].Unit
	})
	return sched
}

// renderProfile writes the human-readable profile report.
func renderProfile(w io.Writer, rec *history.Record, cp *obs.CritPath) {
	fmt.Fprintf(w, "build %d (%s, %d workers): wall %.3fms = compile %.3fms + link %.3fms; %d compiled, %d cached\n",
		rec.Seq, rec.Mode, rec.Workers, fms(rec.TotalNS), fms(rec.CompileNS), fms(rec.LinkNS),
		rec.UnitsCompiled, rec.UnitsCached)

	// Waterfall: events by start time, bars scaled to the compile phase.
	sched := waterfall(rec.Timeline)
	onChain := make(map[string]bool, len(cp.Chain))
	for _, l := range cp.Chain {
		onChain[l.Unit] = true
	}
	if len(sched) > 0 {
		fmt.Fprintf(w, "\ncompile waterfall (%d units; * = on the critical path):\n", len(sched))
		for _, e := range sched {
			mark := " "
			if onChain[e.Unit] {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s w%-2d %-20s %10.3fms %s %s\n",
				mark, e.Worker, e.Unit, fms(e.DurNS()), bar(e.StartNS, e.EndNS, rec.CompileNS), e.Outcome)
		}
	}

	// The critical chain, with per-pass attribution from the record.
	fmt.Fprintf(w, "\ncritical path: %d units, %.3fms compile + %.3fms wait = %.3fms of %.3fms compile wall (longest unit %s %.3fms)\n",
		len(cp.Chain), fms(cp.PathNS), fms(cp.TotalNS-cp.PathNS), fms(cp.TotalNS), fms(rec.CompileNS),
		cp.LongestUnit, fms(cp.LongestUnitNS))
	for _, l := range cp.Chain {
		wait := ""
		if l.WaitNS > 0 {
			wait = fmt.Sprintf("  (+%.3fms %s)", fms(l.WaitNS), l.WaitCause)
		}
		fmt.Fprintf(w, "  %-20s w%-2d %10.3fms %s%s\n", l.Unit, l.Worker, fms(l.SelfNS), l.Outcome, wait)
		for _, p := range passAttribution(rec, l.Unit, 3) {
			fmt.Fprintf(w, "      %-18s %10.3fms\n", p["pass"], fms(p["run_ns"].(int64)))
		}
	}

	// Wait blame, largest cause first.
	type cause struct {
		name string
		ns   int64
	}
	causes := []cause{
		{obs.WaitQueue, cp.QueueWaitNS},
		{obs.WaitStarved, cp.StarvationNS},
	}
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].ns != causes[j].ns {
			return causes[i].ns > causes[j].ns
		}
		return causes[i].name < causes[j].name
	})
	fmt.Fprintf(w, "\ntop wait causes:\n")
	for _, c := range causes {
		fmt.Fprintf(w, "  %-16s %10.3fms\n", c.name, fms(c.ns))
	}

	fmt.Fprintf(w, "\nworker utilization (compile phase):\n")
	for _, wl := range cp.Workers {
		fmt.Fprintf(w, "  w%-2d %3d units %10.3fms busy %5.1f%% %s longest gap %.3fms\n",
			wl.Worker, wl.Units, fms(wl.BusyNS), wl.UtilizationPct,
			bar(0, wl.BusyNS, rec.CompileNS), fms(wl.LongestGapNS))
	}

	// Shared-cache network adversity, when the build saw any: what the
	// degraded path cost and how the breaker behaved (docs/ROBUSTNESS.md).
	m := rec.Metrics
	if m[obs.CtrCASNetErrors]+m[obs.CtrCASRetries]+m[obs.CtrCASBreakerOpen]+
		m[obs.CtrCASBreakerTrips] > 0 {
		fmt.Fprintf(w, "\nshared-cache network adversity:\n")
		fmt.Fprintf(w, "  net errors %d, retries %d\n", m[obs.CtrCASNetErrors], m[obs.CtrCASRetries])
		fmt.Fprintf(w, "  breaker: %d fast-fails while open, %d trips, %d probes, %d recoveries\n",
			m[obs.CtrCASBreakerOpen], m[obs.CtrCASBreakerTrips],
			m[obs.CtrCASBreakerProbes], m[obs.CtrCASBreakerRecovered])
	}
}

// bar renders [start,end) as a fixed-width interval bar over [0,total); an
// empty interval (an idle worker's busy time) fills no cell.
func bar(start, end, total int64) string {
	cells := make([]rune, waterfallWidth)
	for i := range cells {
		cells[i] = '·'
	}
	if total > 0 && end > start {
		lo := int(start * waterfallWidth / total)
		hi := int(end * waterfallWidth / total)
		if hi >= waterfallWidth {
			hi = waterfallWidth - 1
		}
		for i := lo; i <= hi && i >= 0; i++ {
			cells[i] = '█'
		}
	}
	return "|" + string(cells) + "|"
}

func fms(ns int64) float64 { return float64(ns) / 1e6 }

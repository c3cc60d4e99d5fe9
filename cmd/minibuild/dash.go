package main

// The live build dashboard: `minibuild serve` /dash renders the flight
// recorder as one self-contained HTML page — inline SVG, inline CSS, no
// scripts, no external fetches — so it works from curl output saved to a
// file as well as a browser pointed at the daemon:
//
//   - the last build's scheduling waterfall (per-unit gantt bars on the
//     compile phase, colored by outcome, critical path outlined);
//   - skip-rate and unit-compile p50/p99 sparklines over the history
//     window; and
//   - quarantine / soundness-audit status from the newest record.
//
// The page is a pure function of the history file plus the resident
// builder's histograms; refreshing re-reads both (meta refresh keeps it
// live without JavaScript).

import (
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"

	"statefulcc/internal/history"
	"statefulcc/internal/obs"
)

// Dashboard geometry.
const (
	dashGanttWidth   = 720 // px, bar area of the waterfall
	dashGanttRow     = 14  // px per unit row
	dashGanttMaxRows = 80  // longest-units cap on rendered rows
	dashSparkWidth   = 240
	dashSparkHeight  = 48
	// dashWindow is how many of the newest builds the page reads and the
	// sparklines plot. The page reloads itself every 2 s in every open tab;
	// it must not decode the whole history each time.
	dashWindow = 50
)

// handleDash serves the dashboard page.
func (s *buildServer) handleDash(w http.ResponseWriter, _ *http.Request) {
	recs, err := history.LoadLast(s.histPath, dashWindow)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html><html><head><meta charset="utf-8">` +
		`<meta http-equiv="refresh" content="2">` +
		`<title>minibuild dash</title><style>` +
		`body{font:13px/1.5 monospace;margin:1.5em;background:#fafafa;color:#222}` +
		`h1{font-size:16px}h2{font-size:14px;margin-top:1.5em}` +
		`table{border-collapse:collapse}td,th{padding:2px 10px;text-align:right;border-bottom:1px solid #ddd}` +
		`th{text-align:left}td:first-child{text-align:left}` +
		`.ok{color:#2a7}.warn{color:#c60}.bad{color:#c33}` +
		`svg{background:#fff;border:1px solid #ddd}` +
		`</style></head><body>`)
	fmt.Fprintf(&sb, "<h1>minibuild serve — %s (mode %s)</h1>", html.EscapeString(s.dir), html.EscapeString(s.mode))

	if len(recs) == 0 {
		sb.WriteString("<p>no builds recorded yet</p></body></html>")
		writeHTML(w, sb.String())
		return
	}
	last := recs[len(recs)-1]

	remote := ""
	if last.UnitsRemote > 0 {
		remote = fmt.Sprintf(" (%d from shared cache)", last.UnitsRemote)
	}
	fmt.Fprintf(&sb, "<p>build <b>#%d</b>: %.1fms wall (%.1fms compile, %.1fms link), %d compiled / %d cached%s, skip rate %.1f%%</p>",
		last.Seq, fms(last.TotalNS), fms(last.CompileNS), fms(last.LinkNS),
		last.UnitsCompiled, last.UnitsCached, remote, last.SkipRatePct)

	dashGantt(&sb, &last)
	dashSparklines(&sb, recs)
	dashStatus(&sb, &last)

	sb.WriteString("</body></html>")
	writeHTML(w, sb.String())
}

func writeHTML(w http.ResponseWriter, page string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, page)
}

// outcomeColor maps a timeline outcome to its bar color.
func outcomeColor(outcome string) string {
	switch outcome {
	case obs.OutcomePanic:
		return "#c33"
	case obs.OutcomeQuarantine:
		return "#c60"
	case obs.OutcomeRemote:
		return "#2a7"
	default:
		return "#369"
	}
}

// dashGantt renders the last build's compile-phase waterfall as SVG.
func dashGantt(sb *strings.Builder, rec *history.Record) {
	sb.WriteString("<h2>last-build waterfall</h2>")
	if rec.Timeline == nil {
		sb.WriteString("<p>record carries no scheduling timeline</p>")
		return
	}
	cp := obs.Analyze(rec.Timeline, rec.Workers, rec.CompileNS)
	onChain := make(map[string]bool, len(cp.Chain))
	for _, l := range cp.Chain {
		onChain[l.Unit] = true
	}

	// Units served from the local object cache were never scheduled and a
	// record has no event for them; the record's tallies count them.
	skips := rec.UnitsCached - rec.UnitsRemote
	sched := waterfall(rec.Timeline)
	if len(sched) == 0 {
		fmt.Fprintf(sb, "<p>fully cached build (%d skips) — nothing scheduled</p>", skips)
		return
	}
	truncated := 0
	if len(sched) > dashGanttMaxRows {
		truncated = len(sched) - dashGanttMaxRows
		sched = sched[:dashGanttMaxRows]
	}

	span := rec.CompileNS
	if span <= 0 {
		span = 1
	}
	labelW := 180
	height := len(sched)*dashGanttRow + 4
	fmt.Fprintf(sb, `<svg width="%d" height="%d">`, labelW+dashGanttWidth+8, height)
	for i, e := range sched {
		y := i * dashGanttRow
		x := labelW + int(e.StartNS*int64(dashGanttWidth)/span)
		wd := int(e.DurNS() * int64(dashGanttWidth) / span)
		if wd < 1 {
			wd = 1
		}
		stroke := ""
		if onChain[e.Unit] {
			stroke = ` stroke="#000" stroke-width="1"`
		}
		fmt.Fprintf(sb, `<text x="%d" y="%d" font-size="10">%s w%d</text>`,
			2, y+10, html.EscapeString(e.Unit), e.Worker)
		fmt.Fprintf(sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"%s><title>%s: %.3fms on w%d (%s)</title></rect>`,
			x, y+2, wd, dashGanttRow-4, outcomeColor(e.Outcome), stroke,
			html.EscapeString(e.Unit), fms(e.DurNS()), e.Worker, e.Outcome)
	}
	sb.WriteString("</svg>")
	fmt.Fprintf(sb, "<p>%d scheduled, %d cache skips; critical path %d units %.1fms of %.1fms compile wall (outlined); waits: queue %.1fms, starvation %.1fms</p>",
		len(sched)+truncated, skips, len(cp.Chain), fms(cp.TotalNS), fms(rec.CompileNS),
		fms(cp.QueueWaitNS), fms(cp.StarvationNS))
	if truncated > 0 {
		fmt.Fprintf(sb, "<p>(%d shortest rows omitted)</p>", truncated)
	}
}

// unitLatencyQuantile estimates the q-quantile of one record's compiled
// unit latencies (sorted exact quantile — each record is small).
func unitLatencyQuantile(rec *history.Record, q float64) int64 {
	var ns []int64
	for _, u := range rec.Units {
		if !u.Cached && u.CompileNS > 0 {
			ns = append(ns, u.CompileNS)
		}
	}
	if len(ns) == 0 {
		return 0
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	i := int(q * float64(len(ns)-1))
	return ns[i]
}

// sparkline renders vals as a polyline SVG, scaled to its own max.
func sparkline(sb *strings.Builder, label string, vals []float64, unit string) {
	maxV := 0.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	fmt.Fprintf(sb, `<span style="display:inline-block;margin-right:2em">%s (max %.1f%s)<br>`,
		html.EscapeString(label), maxV, unit)
	fmt.Fprintf(sb, `<svg width="%d" height="%d">`, dashSparkWidth, dashSparkHeight)
	if len(vals) > 1 && maxV > 0 {
		pts := make([]string, len(vals))
		for i, v := range vals {
			x := float64(i) * float64(dashSparkWidth-4) / float64(len(vals)-1)
			y := float64(dashSparkHeight-4) * (1 - v/maxV)
			pts[i] = fmt.Sprintf("%.1f,%.1f", x+2, y+2)
		}
		fmt.Fprintf(sb, `<polyline points="%s" fill="none" stroke="#369" stroke-width="1.5"/>`,
			strings.Join(pts, " "))
	}
	sb.WriteString("</svg></span>")
}

// dashSparklines renders the history-window trend charts.
func dashSparklines(sb *strings.Builder, recs []history.Record) {
	fmt.Fprintf(sb, "<h2>history window (%d builds)</h2>", len(recs))
	skip := make([]float64, len(recs))
	p50 := make([]float64, len(recs))
	p99 := make([]float64, len(recs))
	wall := make([]float64, len(recs))
	for i := range recs {
		skip[i] = recs[i].SkipRatePct
		p50[i] = fms(unitLatencyQuantile(&recs[i], 0.50))
		p99[i] = fms(unitLatencyQuantile(&recs[i], 0.99))
		wall[i] = fms(recs[i].TotalNS)
	}
	sparkline(sb, "skip rate", skip, "%")
	sparkline(sb, "unit p50", p50, "ms")
	sparkline(sb, "unit p99", p99, "ms")
	sparkline(sb, "build wall", wall, "ms")
}

// dashStatus renders the quarantine / soundness-audit panel from the
// newest record.
func dashStatus(sb *strings.Builder, rec *history.Record) {
	sb.WriteString("<h2>quarantine &amp; audit</h2><table>")
	var quarantined []string
	for name, u := range rec.Units {
		if u.Quarantine != "" {
			quarantined = append(quarantined, fmt.Sprintf("%s (%s)", name, u.Quarantine))
		}
	}
	sort.Strings(quarantined)
	cls, val := "ok", "none"
	if len(quarantined) > 0 {
		cls, val = "warn", html.EscapeString(strings.Join(quarantined, ", "))
	}
	fmt.Fprintf(sb, `<tr><td>quarantined units</td><td class="%s">%s</td></tr>`, cls, val)

	m := rec.Metrics
	fmt.Fprintf(sb, "<tr><td>quarantines engaged / lifted</td><td>%d / %d</td></tr>",
		m["quarantine.engaged"], m["quarantine.lifted"])
	cls = "ok"
	if m["audit.unsound"] > 0 {
		cls = "bad"
	}
	fmt.Fprintf(sb, `<tr><td>audits sampled / unsound</td><td class="%s">%d / %d</td></tr>`,
		cls, m["audit.sampled"], m["audit.unsound"])
	cls = "ok"
	if m["state.io_error"]+m["history.io_error"] > 0 {
		cls = "warn"
	}
	fmt.Fprintf(sb, `<tr><td>state / history I/O errors</td><td class="%s">%d / %d</td></tr>`,
		cls, m["state.io_error"], m["history.io_error"])
	fmt.Fprintf(sb, "<tr><td>pass panics isolated</td><td>%d</td></tr>", m["build.panic"])
	if hit, miss := m[obs.CtrCASHits], m[obs.CtrCASMisses]; hit+miss > 0 {
		rate := 100 * float64(hit) / float64(hit+miss)
		cls = "ok"
		if m[obs.CtrCASVerifyFailed] > 0 {
			cls = "warn"
		}
		fmt.Fprintf(sb, `<tr><td>shared cache hits / misses (rate)</td><td>%d / %d (%.1f%%)</td></tr>`,
			hit, miss, rate)
		fmt.Fprintf(sb, `<tr><td>shared cache verify failures</td><td class="%s">%d</td></tr>`,
			cls, m[obs.CtrCASVerifyFailed])
	}
	if netErr, fastFail := m[obs.CtrCASNetErrors], m[obs.CtrCASBreakerOpen]; netErr+fastFail > 0 {
		cls = "warn"
		fmt.Fprintf(sb, `<tr><td>shared cache net errors / breaker fast-fails</td><td class="%s">%d / %d</td></tr>`,
			cls, netErr, fastFail)
	}
	if trips := m[obs.CtrCASBreakerTrips]; trips > 0 {
		cls = "warn"
		if m[obs.CtrCASBreakerRecovered] >= trips {
			cls = "ok" // every trip has recovered: the backend is re-engaged
		}
		fmt.Fprintf(sb, `<tr><td>breaker trips / probes / recoveries</td><td class="%s">%d / %d / %d</td></tr>`,
			cls, trips, m[obs.CtrCASBreakerProbes], m[obs.CtrCASBreakerRecovered])
	}
	if rec, orph := m[obs.CtrCASRecoveredRefs], m[obs.CtrCASRecoveredOrphans]; rec+orph > 0 {
		fmt.Fprintf(sb, `<tr><td>startup scan: blobs accounted / temp files swept</td><td>%d / %d</td></tr>`,
			rec, orph)
	}
	sb.WriteString("</table>")
}

package history

// Rendering for the flight recorder's human consumers: `minibuild explain`
// (the last build's per-unit decision tables, with the previous build's
// reasons alongside so "why did this pass run when it was skipped last
// time?" is answerable at a glance) and `minibuild history` (one summary
// line per record).

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"statefulcc/internal/core"
)

// RenderExplain renders the newest record's decision tables: every unit the
// build decided, and one line counting the units it served from the object
// cache. With unit non-empty, only that unit is shown; a unit the record does
// not list was cached and is shown so. Whether the name is a unit of the
// project at all is for the caller to know (`minibuild explain` looks for its
// state file). The previous record, when present, supplies the prev-reason
// column and the headline skip-rate delta.
func RenderExplain(recs []Record, unit string) (string, error) {
	if len(recs) == 0 {
		return "", fmt.Errorf("history: no builds recorded yet")
	}
	last := recs[len(recs)-1]
	var prev *Record
	if len(recs) > 1 {
		prev = &recs[len(recs)-2]
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "build #%d (%s, %d workers) at %s — %d compiled, %d cached, skip rate %.1f%%",
		last.Seq, last.Mode, last.Workers,
		time.UnixMilli(last.TimeUnixMS).UTC().Format(time.RFC3339),
		last.UnitsCompiled, last.UnitsCached, last.SkipRatePct)
	if prev != nil {
		fmt.Fprintf(&sb, " (prev #%d: %.1f%%)", prev.Seq, prev.SkipRatePct)
	}
	sb.WriteString("\n")
	if len(last.FootprintMissed) > 0 {
		fmt.Fprintf(&sb, "MISSED INVALIDATIONS: %s — declared hash said cached while the traced footprint changed (docs/ROBUSTNESS.md)\n",
			strings.Join(last.FootprintMissed, ", "))
	}
	if len(last.FootprintRedundant) > 0 {
		fmt.Fprintf(&sb, "redundant recompiles: %s — footprint proves the cached object was still valid\n",
			strings.Join(last.FootprintRedundant, ", "))
	}

	// The units to show and, for the full listing, the cached ones it only
	// counts.
	units, unlisted := []string{unit}, 0
	if unit == "" {
		units, unlisted = nil, last.UnitsCached
		for name, ur := range last.Units {
			units = append(units, name)
			if ur.Cached {
				unlisted--
			}
		}
		sort.Strings(units)
	}

	for _, name := range units {
		ur := last.Unit(name)
		sb.WriteString("\n")
		if ur.Cached {
			if inList(last.FootprintMissed, name) {
				fmt.Fprintf(&sb, "unit %s — cached [FOOTPRINT MISSED: traced footprint changed, stale object served]\n", name)
			} else {
				fmt.Fprintf(&sb, "unit %s — cached (content hash unchanged, nothing recompiled)\n", name)
			}
			continue
		}
		fmt.Fprintf(&sb, "unit %s — compiled in %.3fms", name, float64(ur.CompileNS)/1e6)
		if ur.Panicked {
			sb.WriteString(" [PANICKED: isolated, compiled stateless]")
		}
		if ur.Quarantine != "" {
			fmt.Fprintf(&sb, " [QUARANTINED: %s]", ur.Quarantine)
		}
		if inList(last.FootprintMissed, name) {
			sb.WriteString(" [FOOTPRINT MISSED: recompiled by enforcement]")
		}
		if inList(last.FootprintRedundant, name) {
			sb.WriteString(" [FOOTPRINT REDUNDANT]")
		}
		sb.WriteString("\n")
		if len(ur.Passes) == 0 {
			sb.WriteString("  (no pass decisions recorded for this mode)\n")
			continue
		}
		var prevPasses []core.SlotStats
		if prev != nil {
			prevPasses = prev.Unit(name).Passes
		}
		fmt.Fprintf(&sb, "  %-4s %-12s %-22s %5s %5s %5s %5s %5s %9s  %s\n",
			"slot", "pass", "reason", "runs", "skip", "rply", "dorm", "audit", "time", "prev-reason")
		for slot := range ur.Passes {
			row := &ur.Passes[slot]
			audit := fmt.Sprintf("%d", row.Audited)
			if row.Unsound > 0 {
				audit = fmt.Sprintf("%d!%d", row.Audited, row.Unsound)
			}
			fmt.Fprintf(&sb, "  [%2d] %-12s %-22s %5d %5d %5d %5d %5s %8.3fms  %s\n",
				slot, last.PassName(slot, row), row.Reason(), row.Runs, row.Skipped, row.Replayed, row.Dormant, audit,
				float64(row.RunNS)/1e6, prevReason(prevPasses, slot))
		}
	}
	if unlisted > 0 {
		fmt.Fprintf(&sb, "\n%d more unit(s) — cached (content hash unchanged, nothing recompiled)\n", unlisted)
	}
	return sb.String(), nil
}

// inList reports membership in a (short) unit-name list.
func inList(list []string, name string) bool {
	for _, s := range list {
		if s == name {
			return true
		}
	}
	return false
}

// prevReason finds the previous build's reason for the same slot ("-" when
// the unit was cached, absent, or had fewer slots last build).
func prevReason(passes []core.SlotStats, slot int) string {
	if slot < len(passes) {
		return passes[slot].Reason()
	}
	return "-"
}

// RenderHistory renders one summary line per record, oldest first, for the
// newest n records (all when n <= 0).
func RenderHistory(recs []Record, n int) string {
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	if len(recs) == 0 {
		return "history: no builds recorded yet\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-20s %-10s %8s %7s %7s %9s %9s\n",
		"seq", "time", "mode", "compiled", "cached", "skip%", "total", "state")
	for _, r := range recs {
		fmt.Fprintf(&sb, "#%-4d %-20s %-10s %8d %7d %6.1f%% %8.2fms %8.1fK\n",
			r.Seq, time.UnixMilli(r.TimeUnixMS).UTC().Format("2006-01-02T15:04:05Z"),
			r.Mode, r.UnitsCompiled, r.UnitsCached, r.SkipRatePct,
			float64(r.TotalNS)/1e6, float64(r.StateBytes)/1024)
	}
	return sb.String()
}

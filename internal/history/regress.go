package history

// Regression detection over the flight-recorder history — the machine
// usable consumer (`minibuild regress`, wired into `make ci`): compare the
// newest record against the mean of a window of prior records and flag a
// skip-rate drop or wall-time rise beyond thresholds.

import (
	"fmt"
	"strings"
)

// RegressOptions configures CheckRegress. Zero values select defaults.
type RegressOptions struct {
	// Window bounds how many prior records form the baseline (default 10).
	Window int
	// SkipDropPts flags the newest build when its skip rate is more than
	// this many percentage points below the baseline mean (default 10).
	SkipDropPts float64
	// TimeRisePct flags the newest build when its total wall time exceeds
	// the baseline mean by more than this percentage (default 50).
	TimeRisePct float64
	// MinRecords is the least history length required; fewer records is
	// reported as an error so CI can assert recording happened (default 2).
	MinRecords int
	// MinSkipRatePct, when > 0, additionally requires the newest record's
	// skip rate to reach this floor (CI smoke: "skip rate was recorded").
	MinSkipRatePct float64
}

func (o *RegressOptions) defaults() {
	if o.Window <= 0 {
		o.Window = 10
	}
	if o.SkipDropPts == 0 {
		o.SkipDropPts = 10
	}
	if o.TimeRisePct == 0 {
		o.TimeRisePct = 50
	}
	if o.MinRecords <= 0 {
		o.MinRecords = 2
	}
}

// Needs is how many of a history's newest records CheckRegress reads under
// these options: the newest, the window before it, and as many as MinRecords
// asks to see exist.
func (o RegressOptions) Needs() int {
	o.defaults()
	return max(o.Window+1, o.MinRecords)
}

// RegressResult is the verdict over one history.
type RegressResult struct {
	// Regressed is true when any check tripped; Reasons explains each.
	Regressed bool
	Reasons   []string
	// Newest/baseline figures, for reporting.
	NewestSeq       int
	BaselineBuilds  int
	NewestSkipPct   float64
	BaselineSkipPct float64
	NewestTotalMS   float64
	BaselineTotalMS float64
}

// String renders the verdict for CLI output.
func (r RegressResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "build #%d vs mean of %d prior build(s): skip rate %.1f%% (baseline %.1f%%), wall %.2fms (baseline %.2fms)\n",
		r.NewestSeq, r.BaselineBuilds, r.NewestSkipPct, r.BaselineSkipPct,
		r.NewestTotalMS, r.BaselineTotalMS)
	if !r.Regressed {
		sb.WriteString("no regression detected\n")
		return sb.String()
	}
	for _, reason := range r.Reasons {
		fmt.Fprintf(&sb, "REGRESSION: %s\n", reason)
	}
	return sb.String()
}

// CheckRegress evaluates the newest record against the prior window. An
// error means the history is unusable for the check (too short); a
// Regressed result means the thresholds tripped.
func CheckRegress(recs []Record, opt RegressOptions) (RegressResult, error) {
	opt.defaults()
	var res RegressResult
	if len(recs) < opt.MinRecords {
		return res, fmt.Errorf("history: %d record(s), need at least %d — was the build recorded?",
			len(recs), opt.MinRecords)
	}
	newest := recs[len(recs)-1]
	base := recs[:len(recs)-1]
	if len(base) > opt.Window {
		base = base[len(base)-opt.Window:]
	}

	var skipSum, msSum float64
	for _, r := range base {
		skipSum += r.SkipRatePct
		msSum += float64(r.TotalNS) / 1e6
	}
	res.NewestSeq = newest.Seq
	res.BaselineBuilds = len(base)
	res.NewestSkipPct = newest.SkipRatePct
	res.BaselineSkipPct = skipSum / float64(len(base))
	res.NewestTotalMS = float64(newest.TotalNS) / 1e6
	res.BaselineTotalMS = msSum / float64(len(base))

	if res.NewestSkipPct < res.BaselineSkipPct-opt.SkipDropPts {
		res.Regressed = true
		res.Reasons = append(res.Reasons, fmt.Sprintf(
			"skip rate dropped %.1f points (%.1f%% → %.1f%%, threshold %.1f)",
			res.BaselineSkipPct-res.NewestSkipPct, res.BaselineSkipPct, res.NewestSkipPct, opt.SkipDropPts))
	}
	if res.BaselineTotalMS > 0 && res.NewestTotalMS > res.BaselineTotalMS*(1+opt.TimeRisePct/100) {
		res.Regressed = true
		res.Reasons = append(res.Reasons, fmt.Sprintf(
			"wall time rose %.0f%% (%.2fms → %.2fms, threshold %.0f%%)",
			100*(res.NewestTotalMS/res.BaselineTotalMS-1), res.BaselineTotalMS, res.NewestTotalMS, opt.TimeRisePct))
	}
	if opt.MinSkipRatePct > 0 && res.NewestSkipPct < opt.MinSkipRatePct {
		res.Regressed = true
		res.Reasons = append(res.Reasons, fmt.Sprintf(
			"skip rate %.1f%% below required floor %.1f%%", res.NewestSkipPct, opt.MinSkipRatePct))
	}
	return res, nil
}

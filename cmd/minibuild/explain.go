package main

// The flight-recorder reading subcommands: explain (last build's decision
// tables), history (record summaries), and regress (CI regression gate).

import (
	"flag"
	"fmt"
	"os"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/history"
)

// loadHistory reads the newest n records (all when n <= 0) of the history
// file under the resolved state directory.
func loadHistory(dir, cache string, n int) ([]history.Record, string, error) {
	path := history.Path(resolveStateDir(dir, cache))
	recs, err := history.LoadLast(path, n)
	if err != nil {
		return nil, path, err
	}
	return recs, path, nil
}

// runExplain renders the last build's per-unit, per-pass decision table,
// with the previous build's reasons for comparison. An optional positional
// argument restricts output to one unit.
func runExplain(args []string) error {
	fs := flag.NewFlagSet("minibuild explain", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	unit := ""
	if rest := fs.Args(); len(rest) > 0 {
		unit = rest[0]
	}
	// The newest build and the one before it, for the prev-reason column.
	recs, path, err := loadHistory(*dir, *cache, 2)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no build history at %s (run a stateful build first)", path)
	}
	// A record lists the units its build decided; any other unit of the
	// project was cached and has its state file to show that it exists.
	if unit != "" && !unitKnown(recs, resolveStateDir(*dir, *cache), unit) {
		return fmt.Errorf("unknown unit %q: the last %d build(s) do not list it and %s holds no state file for it",
			unit, len(recs), resolveStateDir(*dir, *cache))
	}
	out, err := history.RenderExplain(recs, unit)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// unitKnown reports whether any of recs lists unit or stateDir holds its
// state file.
func unitKnown(recs []history.Record, stateDir, unit string) bool {
	for i := range recs {
		if _, ok := recs[i].Units[unit]; ok {
			return true
		}
	}
	_, err := os.Stat(buildsys.StatePath(stateDir, unit))
	return err == nil
}

// runHistory summarizes the newest records, one line per build.
func runHistory(args []string) error {
	fs := flag.NewFlagSet("minibuild history", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	n := fs.Int("n", 20, "newest records to show (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, path, err := loadHistory(*dir, *cache, *n)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no build history at %s (run a stateful build first)", path)
	}
	fmt.Print(history.RenderHistory(recs, *n))
	return nil
}

// runRegress gates on the flight recorder: exit status 2 (via
// errRegression) when the newest build's skip rate dropped or wall time
// rose beyond thresholds relative to the prior window — machine-usable
// from CI.
func runRegress(args []string) error {
	fs := flag.NewFlagSet("minibuild regress", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	window := fs.Int("window", 10, "baseline window (prior records)")
	skipDrop := fs.Float64("skip-drop", 10, "flag a skip-rate drop beyond this many percentage points")
	timeRise := fs.Float64("time-rise", 50, "flag a wall-time rise beyond this percentage")
	minRecords := fs.Int("min-records", 2, "minimum history length required")
	minSkip := fs.Float64("min-skip-rate", 0, "require the newest build's skip rate to reach this percentage")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt := history.RegressOptions{
		Window:         *window,
		SkipDropPts:    *skipDrop,
		TimeRisePct:    *timeRise,
		MinRecords:     *minRecords,
		MinSkipRatePct: *minSkip,
	}
	recs, path, err := loadHistory(*dir, *cache, opt.Needs())
	if err != nil {
		return err
	}
	res, err := history.CheckRegress(recs, opt)
	if err != nil {
		return fmt.Errorf("%w (history: %s)", err, path)
	}
	if res.Regressed {
		return errRegression{report: res.String()}
	}
	fmt.Print(res.String())
	return nil
}

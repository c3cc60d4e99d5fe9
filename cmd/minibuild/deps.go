package main

// The deps subcommand: print the dependency footprints recorded by
// footprint-traced builds (on their state files), diff them against the current
// tree, and — with -check — gate CI on missed invalidations, exiting 2 the
// way regress does.
//
//	minibuild deps -dir ./proj                 print per-unit footprints
//	minibuild deps -dir ./proj src/util.mc     one unit only
//	minibuild deps -dir ./proj -diff           drift vs the working tree
//	minibuild deps -dir ./proj -check          exit 2 on any violation
//
// -check applies two independent detectors:
//
//   - the offline paradox: a unit whose current declared content hash
//     equals the recorded one (the cache would say "unchanged") while the
//     recorded ground-truth footprint disagrees with the current bytes — a
//     missed invalidation waiting to happen; the reverse disagreement is
//     reported as redundant (wasted work, not a failure);
//
//   - the flight recorder: the newest history record carrying
//     footprint_missed units — a missed invalidation a live builder
//     already observed (the lying-invalidator case, invisible offline
//     because the lie lives in the builder process).

import (
	"flag"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/footprint"
	"statefulcc/internal/history"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/vfs"
)

func runDeps(args []string) error {
	fs := flag.NewFlagSet("minibuild deps", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	diff := fs.Bool("diff", false, "show only drift between recorded footprints and the working tree")
	check := fs.Bool("check", false, "CI gate: exit 2 on any missed invalidation (offline paradox or recorded by the last build)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	unit := fs.Arg(0)

	stateDir := resolveStateDir(*dir, *cache)
	fps, err := loadFootprints(stateDir)
	if err != nil {
		return err
	}
	if len(fps) == 0 {
		return fmt.Errorf("deps: no footprints recorded under %s (build with -footprint first)", stateDir)
	}
	snap, err := project.LoadDir(*dir)
	if err != nil {
		return err
	}

	units := make([]string, 0, len(fps))
	for name := range fps {
		units = append(units, name)
	}
	sort.Strings(units)
	if unit != "" {
		if _, ok := fps[unit]; !ok {
			return fmt.Errorf("deps: no footprint recorded for unit %q (units: %s)",
				unit, strings.Join(units, ", "))
		}
		units = []string{unit}
	}

	// deps -check uses the same pipeline fingerprint a default build
	// records; a build with a custom -pipeline needs its own live
	// cross-check (the build's footprint.missed counter), not this gate.
	pipeHash := footprint.HashStrings(passes.StandardPipeline)

	var missed, redundant []string
	var sb strings.Builder
	for _, name := range units {
		fp := fps[name]
		src, present := snap[name]
		cur := fp.Changed(src, pipeHash)
		switch {
		case !present:
			fmt.Fprintf(&sb, "unit %s — recorded footprint, unit no longer in tree\n", name)
			continue
		case len(cur) == 0 && buildsys.ContentHash(src) != fp.DeclaredHash:
			redundant = append(redundant, name)
			fmt.Fprintf(&sb, "unit %s — REDUNDANT: declared hash moved but footprint unchanged (recompile would be wasted)\n", name)
		case len(cur) > 0 && buildsys.ContentHash(src) == fp.DeclaredHash:
			missed = append(missed, name)
			fmt.Fprintf(&sb, "unit %s — MISSED INVALIDATION: declared hash unchanged but footprint changed:\n", name)
			for _, e := range cur {
				fmt.Fprintf(&sb, "  ~ %s\n", e)
			}
		case *check:
			// Quiet in CI mode: only violations and the verdict print.
			continue
		case *diff:
			if len(cur) > 0 {
				fmt.Fprintf(&sb, "unit %s — changed vs working tree:\n", name)
				for _, e := range cur {
					fmt.Fprintf(&sb, "  ~ %s\n", e)
				}
			}
			continue
		default:
			fmt.Fprintf(&sb, "unit %s — %d entries (declared %016x)\n", name, len(fp.Entries), fp.DeclaredHash)
			for _, e := range fp.Entries {
				fmt.Fprintf(&sb, "  %s\n", e)
			}
		}
	}

	// Flight-recorder detector: a live builder already caught a missed
	// invalidation (footprint_missed on the newest record).
	var recorded []string
	if recs, herr := history.LoadLast(history.Path(stateDir), 1); herr == nil && len(recs) > 0 {
		recorded = recs[0].FootprintMissed
	}

	if *check {
		if len(missed) > 0 || len(recorded) > 0 {
			var rb strings.Builder
			rb.WriteString(sb.String())
			if len(recorded) > 0 {
				fmt.Fprintf(&rb, "last recorded build flagged missed invalidations: %s\n",
					strings.Join(recorded, ", "))
			}
			fmt.Fprintf(&rb, "deps check FAILED: %d offline + %d recorded missed invalidations (see docs/ROBUSTNESS.md)\n",
				len(missed), len(recorded))
			return errRegression{report: rb.String()}
		}
		fmt.Fprintf(&sb, "deps check passed: %d units cross-checked, 0 missed invalidations (%d redundant)\n",
			len(units), len(redundant))
	} else if len(recorded) > 0 {
		fmt.Fprintf(&sb, "note: last recorded build flagged missed invalidations: %s\n",
			strings.Join(recorded, ", "))
	}
	fmt.Print(sb.String())
	return nil
}

// loadFootprints reads every state file under stateDir and returns the
// recorded footprints keyed by unit name. Unreadable or footprint-less
// files are skipped (older formats, corrupt files, quarantine markers from
// untraced builds).
func loadFootprints(stateDir string) (map[string]*footprint.Record, error) {
	entries, err := vfs.OS.ReadDir(stateDir)
	if err != nil {
		return nil, fmt.Errorf("deps: %w", err)
	}
	out := make(map[string]*footprint.Record)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".state") {
			continue
		}
		st, err := state.LoadFS(vfs.OS, filepath.Join(stateDir, e.Name()))
		if err != nil || st == nil || st.Footprint == nil {
			continue
		}
		out[st.Unit] = st.Footprint
	}
	return out, nil
}

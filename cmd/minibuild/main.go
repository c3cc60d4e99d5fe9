// minibuild is the incremental build system CLI: it builds a directory of
// MiniC sources, keeping object and compiler state across invocations via a
// cache directory, and optionally runs the resulting program. Every build
// with a state directory also appends a record to the build flight recorder
// (<state>/history.jsonl), which the subcommands consume:
//
//	minibuild -dir ./proj -mode stateful -state .minibuild
//	minibuild -dir ./proj -run -j 8
//	minibuild -dir ./proj -watch-stats       per-build pipeline statistics
//	minibuild -dir ./proj -trace out.json    Chrome trace_event profile
//	minibuild -dir ./proj -metrics           machine-readable counters block
//	minibuild -dir ./proj -timeout 30s       deadline; ^C also cancels cleanly
//	minibuild -dir ./proj -audit 0.05        soundness-sentinel skip audits
//	minibuild explain -dir ./proj [unit]     last build's decision table
//	minibuild history -dir ./proj            recent flight-recorder records
//	minibuild -dir ./proj -footprint         trace + cross-check footprints
//	minibuild -dir ./proj -enforce-footprint always-correct mode
//	minibuild regress -dir ./proj            CI regression gate (exit 2)
//	minibuild deps -dir ./proj [-diff|-check] recorded dependency footprints
//	minibuild profile -dir ./proj [-json]    critical-path build profile
//	minibuild serve -dir ./proj -addr :8377  daemon with /metrics, /builds,
//	                                         /healthz, /dash and /debug/pprof
//
// Within one process the object cache lives in memory; the dormancy state
// additionally persists to -cache so the *next* invocation's recompiles
// still skip dormant passes — exactly the paper's deployment model; with
// nothing to replay, -mode stateful runs the dormancy records alone.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/vm"
)

// errRegression marks the regress subcommand's threshold failure so main
// can exit with a distinct status (2) CI scripts can branch on.
type errRegression struct{ report string }

func (e errRegression) Error() string { return e.report }

func main() {
	err := run(os.Args[1:])
	if err == nil {
		return
	}
	if re, ok := err.(errRegression); ok {
		fmt.Fprint(os.Stderr, re.report)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "minibuild:", err)
	os.Exit(1)
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "explain":
			return runExplain(args[1:])
		case "history":
			return runHistory(args[1:])
		case "regress":
			return runRegress(args[1:])
		case "deps":
			return runDeps(args[1:])
		case "profile":
			return runProfile(args[1:])
		case "serve":
			return runServe(args[1:])
		}
	}
	return runBuild(args)
}

// stateDirFlags installs the -dir and -cache/-state flags shared by every
// subcommand and returns their destinations.
func stateDirFlags(fs *flag.FlagSet) (dir, cache *string) {
	dir = fs.String("dir", ".", "project directory (*.mc files)")
	cache = fs.String("cache", "", "cache directory for persistent state (default <dir>/.minibuild)")
	fs.StringVar(cache, "state", "", "alias for -cache")
	return dir, cache
}

// resolveStateDir applies the default state-directory location.
func resolveStateDir(dir, cache string) string {
	if cache != "" {
		return cache
	}
	return filepath.Join(dir, ".minibuild")
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("minibuild", flag.ContinueOnError)
	dir, cache := stateDirFlags(fs)
	mode := fs.String("mode", "stateful", "compiler policy: stateless|stateful")
	runProg := fs.Bool("run", false, "execute the built program")
	showStats := fs.Bool("watch-stats", false, "print pipeline statistics")
	jobs := fs.Int("j", 0, "parallel compile workers (default GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the build after this duration (0 = no deadline); partial results are reported and the state directory stays consistent")
	audit := fs.Float64("audit", 0, "soundness-sentinel audit rate in [0,1]: probability a would-be-skipped pass executes anyway for verification (see docs/ROBUSTNESS.md)")
	footprintOn := fs.Bool("footprint", false, "trace each unit's dependency footprint and cross-check cache decisions against it (see docs/ROBUSTNESS.md and `minibuild deps`)")
	enforce := fs.Bool("enforce-footprint", false, "always-correct mode: the traced footprint overrides the declared content hash (implies -footprint)")
	casURL := fs.String("cas", "", "shared-cache base URL (a `minibuild serve -cas-serve` instance, e.g. http://127.0.0.1:8377): fetch verified objects by content hash and publish local compiles back")
	casBudget := fs.Duration("cas-budget", 0, "per-fetch shared-cache deadline budget, retries included (default 10s); a stalled or partitioned backend costs at most this per operation before the build compiles locally")
	var export obs.CLIExport
	export.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *audit < 0 || *audit > 1 {
		return fmt.Errorf("-audit %v out of range [0,1]", *audit)
	}

	cmode, err := compiler.ParseMode(*mode)
	if err != nil {
		return err
	}
	// Cooperative cancellation: ^C (and an optional -timeout deadline)
	// aborts the build between pass slots rather than killing the process
	// mid-write — completed units' state files are fully written, the rest
	// untouched, so the next invocation always finds a loadable state dir.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	stateDir := resolveStateDir(*dir, *cache)
	if cmode&core.Records != 0 {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
	} else {
		stateDir = ""
	}

	snap, err := project.LoadDir(*dir)
	if err != nil {
		return err
	}

	var casStore cas.Store
	if *casURL != "" {
		casStore = cas.NewHTTPCASOpts(*casURL, "", cas.HTTPOptions{FetchBudget: *casBudget})
	} else if *casBudget != 0 {
		return fmt.Errorf("-cas-budget requires -cas")
	}

	builder, err := buildsys.NewBuilder(buildsys.Options{
		Mode: cmode, StateDir: stateDir, Workers: *jobs, Trace: export.Tracer(),
		AuditRate: *audit,
		Footprint: *footprintOn || *enforce, EnforceFootprint: *enforce,
		CAS: casStore,
	})
	if err != nil {
		return err
	}
	rep, err := builder.BuildContext(ctx, snap)
	if err != nil {
		if rep != nil {
			// Cancelled/timed-out build: surface what the partial report
			// knows before exiting non-zero.
			for _, w := range rep.Warnings {
				fmt.Fprintln(os.Stderr, "minibuild: warning:", w)
			}
			fmt.Fprintf(os.Stderr, "minibuild: partial build: %d units compiled, %d cached before cancellation (state directory remains consistent)\n",
				rep.UnitsCompiled, rep.UnitsCached)
		}
		return err
	}
	// Degradation warnings (state/history I/O the build absorbed): the
	// build is correct but the next one may run cold.
	for _, w := range rep.Warnings {
		fmt.Fprintln(os.Stderr, "minibuild: warning:", w)
	}
	if len(rep.FootprintMissed) > 0 {
		fmt.Fprintf(os.Stderr, "minibuild: MISSED INVALIDATIONS: %d unit(s) cached against a changed footprint: %v (run `minibuild deps -check`)\n",
			len(rep.FootprintMissed), rep.FootprintMissed)
	}
	if len(rep.FootprintRedundant) > 0 {
		fmt.Fprintf(os.Stderr, "minibuild: footprint: %d redundant recompile(s): %v\n",
			len(rep.FootprintRedundant), rep.FootprintRedundant)
	}
	remote := ""
	if rep.UnitsRemote > 0 {
		remote = fmt.Sprintf(", %d from shared cache", rep.UnitsRemote)
	}
	fmt.Printf("built %d units (%d compiled, %d cached%s) in %.2fms (compile %.2fms, link %.2fms), state %.1fKiB\n",
		rep.UnitsCompiled+rep.UnitsCached, rep.UnitsCompiled, rep.UnitsCached, remote,
		float64(rep.TotalNS)/1e6, float64(rep.CompileNS)/1e6, float64(rep.LinkNS)/1e6,
		float64(rep.StateBytes)/1024)
	if runs, _, skipped := rep.Stats().Totals(); runs+skipped > 0 {
		fmt.Printf("dormancy: %d pass runs, %d skipped (skip rate %.1f%%), pool utilization %.0f%%\n",
			runs, skipped, 100*obs.SkipRate(rep.Metrics), 100*rep.Utilization())
	}

	if *showStats {
		if st := rep.Stats(); len(st.Slots) > 0 {
			fmt.Print(st)
		}
	}
	if err := export.Export(os.Stdout, os.Stdout, rep.Metrics); err != nil {
		return err
	}

	if *runProg {
		res, err := vm.Run(rep.Program, vm.Config{Output: os.Stdout})
		if err != nil {
			return err
		}
		fmt.Printf("program finished: exit=%d steps=%d\n", res.ExitValue, res.Steps)
	}
	return nil
}

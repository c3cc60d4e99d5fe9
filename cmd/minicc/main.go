// minicc is the MiniC compiler driver — the per-file tool a build system
// invokes. It compiles one or more source files, optionally links and runs
// them, and exposes the stateful architecture through flags:
//
//	minicc file.mc...                 compile and link (stateless)
//	minicc -mode stateful -state-dir .mcstate file.mc...
//	                                  stateful compilation with persistent
//	                                  dormancy records
//	minicc -run file.mc...            execute the linked program
//	minicc -emit-ir file.mc           print optimized IR
//	minicc -stats file.mc             print pipeline statistics
//	minicc -trace out.json file.mc    write a Chrome trace_event profile
//	minicc -metrics file.mc           print the counters block
//	minicc -verify-state ...          run every skipped pass anyway and
//	                                  exit non-zero on an unsound skip
//	minicc -O0|-O1|-O2 ...            pipeline selection
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
	"statefulcc/internal/state"
	"statefulcc/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "minicc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("minicc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "stateless", "compilation policy: stateless|stateful")
	stateDir := fs.String("state-dir", "", "directory for persistent dormancy state (stateful mode)")
	emitIR := fs.Bool("emit-ir", false, "print optimized IR instead of producing a program")
	emitAsm := fs.Bool("emit-asm", false, "print disassembled bytecode instead of producing a program")
	stats := fs.Bool("stats", false, "print pipeline statistics per unit")
	runProg := fs.Bool("run", false, "execute the linked program")
	o0 := fs.Bool("O0", false, "disable optimization")
	o1 := fs.Bool("O1", false, "quick pipeline")
	o2 := fs.Bool("O2", true, "standard pipeline (default)")
	verifyIR := fs.Bool("verify-ir", false, "verify IR after every pass")
	verifyState := fs.Bool("verify-state", false, "run every pass the dormancy state would skip anyway and compare its output fingerprint with its input (the soundness sentinel at rate 1); exit non-zero on an unsound skip")
	footprintOn := fs.Bool("footprint", false, "record each unit's dependency footprint on its persisted state (inspect with `minibuild deps`)")
	var export obs.CLIExport
	export.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return fmt.Errorf("no input files")
	}

	var pipeline []string
	switch {
	case *o0:
		pipeline = []string{}
	case *o1:
		pipeline = passes.QuickPipeline
	case *o2:
		pipeline = passes.StandardPipeline
	}
	// An empty pipeline needs at least a placeholder slot for the driver;
	// use mem2reg alone so codegen sees SSA-ready IR shape (it handles
	// memory form fine too, but -O0 means "minimal", not "none").
	if len(pipeline) == 0 {
		pipeline = []string{"mem2reg"}
	}

	cmode, err := compiler.ParseMode(*mode)
	if err != nil {
		return err
	}
	// Each file compiles once: a segment memo would replay nothing.
	cmode &^= core.Replay
	var auditRate float64
	if *verifyState {
		auditRate = 1
	}
	reg := obs.NewRegistry()
	comp, err := compiler.New(compiler.Options{
		Pipeline:  pipeline,
		Mode:      cmode,
		VerifyIR:  *verifyIR,
		AuditRate: auditRate,
		Obs:       &obs.Sink{Tracer: export.Tracer(), Pass: reg.Pass(), TID: 1},
	})
	if err != nil {
		return err
	}

	persist := *stateDir != "" && cmode&core.Records != 0
	var objects []*codegen.Object
	var unsound []string // "unit: n" for every unit with an unsound skip
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		unit := filepath.ToSlash(file)

		var st *core.UnitState
		if persist {
			st, err = state.Load(buildsys.StatePath(*stateDir, unit))
			if err != nil {
				fmt.Fprintf(stderr, "minicc: discarding unreadable state for %s: %v\n", unit, err)
				st = nil
			}
		}

		res, err := comp.CompileUnit(unit, src, st)
		if err != nil {
			return err
		}
		if *footprintOn && persist {
			// minicc has no build-system seam, so the footprint holds the
			// invalidating and link-scope entries only (no advisory file
			// reads): source bytes, pipeline identity, unresolved symbols.
			tr := footprint.NewTrace(unit)
			tr.AddSource(unit, src)
			tr.AddPipeline(pipeline)
			buildsys.RecordObjectDeps(tr, res.Object)
			res.State.Footprint = tr.Finish(buildsys.ContentHash(src))
		}
		if persist {
			if err := state.Save(buildsys.StatePath(*stateDir, unit), res.State); err != nil {
				fmt.Fprintf(stderr, "minicc: saving state for %s: %v\n", unit, err)
			}
		}
		if *emitIR {
			// Printed now: the module is valid only until the next CompileUnit.
			fmt.Fprintln(stdout, res.Module.String())
		}
		if *emitAsm {
			fmt.Fprintln(stdout, codegen.DisassembleObject(res.Object))
		}
		if *stats {
			fmt.Fprintf(stdout, "--- %s ---\n%s", unit, res.Stats)
		}
		if _, n := res.Stats.SentinelTotals(); n > 0 {
			unsound = append(unsound, fmt.Sprintf("%s: %d", unit, n))
		}
		objects = append(objects, res.Object)
	}

	if err := export.Export(stdout, stderr, reg.Snapshot()); err != nil {
		return err
	}
	if len(unsound) > 0 {
		// The output is still right: an audited pass's output is what a
		// stateless compile makes, and the (unit, pass) pair is quarantined
		// in the saved state.
		return fmt.Errorf("-verify-state: unsound skips (%s)", strings.Join(unsound, ", "))
	}

	if *emitIR || *emitAsm {
		return nil
	}
	prog, err := codegen.Link(objects)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "linked %d unit(s): %d functions, %d global words, entry %q\n",
		len(objects), len(prog.Funcs), prog.GlobalWords, "main")

	if *runProg {
		res, err := vm.Run(prog, vm.Config{Output: stdout})
		if err != nil {
			return err
		}
		if res.ExitValue != 0 {
			fmt.Fprintf(stderr, "program exited with %d\n", res.ExitValue)
		}
	}
	return nil
}

// Package compiler is the per-unit compilation facade: frontend (lex,
// parse, typecheck, lower), the optimization pipeline under a policy, and
// bytecode generation. The build system invokes it the way make/ninja
// invoke a real compiler.
//
// A Mode is the pass driver's policy (core.Policy), two bits: Records, the
// paper's dormant-pass skipping driven by persistent per-function records,
// and Replay, full-IR caching of each function's segment outputs in memory.
// The product's modes are ModeStateless (neither, the paper's baseline) and
// ModeStateful (both); a process that compiles each unit once clears
// Replay, having no memo to replay.
package compiler

import (
	"context"
	"fmt"
	"strings"
	"time"

	"statefulcc/internal/codegen"
	"statefulcc/internal/core"
	"statefulcc/internal/ir"
	"statefulcc/internal/irbuild"
	"statefulcc/internal/obs"
	"statefulcc/internal/parser"
	"statefulcc/internal/passes"
	"statefulcc/internal/types"
)

// Mode selects the compilation policy.
type Mode = core.Policy

// Modes.
const (
	ModeStateless = core.Stateless
	ModeStateful  = core.Stateful
)

// ParseMode is the inverse of Mode.String for the two product modes,
// ignoring case.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeStateless, ModeStateful} {
		if strings.EqualFold(s, m.String()) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// Options configures a Compiler.
type Options struct {
	// Pipeline is the pass list (default passes.StandardPipeline).
	Pipeline []string
	// Mode is the compilation policy (default ModeStateless).
	Mode Mode
	// VerifyIR forwards to core.Options.
	VerifyIR bool
	// AuditRate forwards to core.Options: the soundness sentinel's
	// probability of executing a would-be-skipped pass anyway to verify the
	// dormancy assumption (0 disables, 1 audits every skip).
	AuditRate float64
	// AuditSeed seeds the sentinel's sampler (0 means a fixed default, so
	// equal-seed compilers audit the same skips).
	AuditSeed uint64
	// Obs carries the observability context (shared tracer, counters,
	// worker thread id). Nil disables tracing; stage times are still
	// recorded in each UnitResult.
	Obs *obs.Sink
}

// Compiler compiles units under a fixed policy. It is not safe for
// concurrent use (the driver's state is unsynchronized);
// build systems run one compiler per worker. That makes it the owner of
// the worker's scratch memory — the frontend's in fe, the IR arena among
// them, the passes' dense side tables inside its driver, code generation's
// in cg — which is reused from unit to unit and never shared between
// compilers.
type Compiler struct {
	opts   Options
	driver *core.Driver
	fe     frontend
	cg     codegen.Scratch
}

// New builds a compiler.
func New(opts Options) (*Compiler, error) {
	if len(opts.Pipeline) == 0 {
		opts.Pipeline = passes.StandardPipeline
	}
	d, err := core.NewDriver(core.Options{
		Pipeline:  opts.Pipeline,
		Policy:    opts.Mode,
		VerifyIR:  opts.VerifyIR,
		AuditRate: opts.AuditRate,
		AuditSeed: opts.AuditSeed,
		Obs:       opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Compiler{opts: opts, driver: d}, nil
}

// Release gives the IR of the last compile's Module back to the
// compiler's arena, wiped, so that an idle compiler pins none of it. That
// Module must not be used afterwards.
func (c *Compiler) Release() { c.fe.lower.Release() }

// Stage span names emitted to the tracer for every unit compilation.
const (
	StageFrontend = "frontend"
	StagePasses   = "passes"
	StageCodegen  = "codegen"
)

// UnitResult is the outcome of compiling one unit.
type UnitResult struct {
	// Object is the compiled artifact.
	Object *codegen.Object
	// Module is the post-pipeline IR. Like the slice bufio.Scanner.Bytes
	// returns, it may be overwritten: it is cut from the compiler's IR arena
	// and valid only until the same Compiler's next compile or Release, so
	// a caller that needs it later prints or encodes it first (a
	// CloneModule copy shares its constants, which does not help). Object,
	// State and Stats do not point into it and stay valid.
	Module *ir.Module
	// State is the updated unit state: the dormancy records (Records) and
	// the segment memo (Replay); nil in stateless mode.
	State *core.UnitState
	// Stats holds pipeline statistics.
	Stats *core.Stats
	// FrontendNS, PassesNS and CodegenNS are the stage times; the tracer,
	// when one is attached, receives them as stage spans (and the per-pass
	// spans besides).
	FrontendNS, PassesNS, CodegenNS int64
	// TotalNS is the unit's end-to-end compile wall time.
	TotalNS int64
}

// Frontend runs lex/parse/check/lower on one unit.
func Frontend(unitName string, src []byte) (*ir.Module, error) {
	m, _, err := new(frontend).build(unitName, src, nil)
	return m, err
}

// frontend is one worker's frontend scratch: the parser's token buffer,
// list stacks, intern table and AST arena, the checker's tables and symbol
// memory, the lowering's slot table, block stacks and IR arena, and the
// memory of frontend reuse (reuse.go). The AST and the checker's tables are
// the unit's frontend arena: lowering reads them, and they are wiped and
// returned when it returns, on every path, so that neither a failed unit
// nor a large one leaves anything for the next. The IR arena holds the
// returned module's IR until the next unit's lowering or Compiler.Release
// wipes it, so an idle, released worker pins no unit's AST or IR.
type frontend struct {
	parse parser.Scratch
	check types.Scratch
	lower irbuild.Scratch
	reuse reuse
}

// release wipes the unit's AST and the checker's tables: nothing the
// returned module or error holds points into them.
func (fe *frontend) release() {
	fe.check.Release()
	fe.parse.Release()
}

// CompileUnit compiles one unit from source. st carries the previous
// build's dormancy records (Records) and segment outputs (Replay), nil on
// cold builds, and the updated state is returned in the result.
func (c *Compiler) CompileUnit(unitName string, src []byte, st *core.UnitState) (*UnitResult, error) {
	return c.CompileUnitContext(context.Background(), unitName, src, st)
}

// CompileUnitContext is CompileUnit under a cancellation context: the
// pipeline checks ctx between pass slots and per function, so a deadline
// or cancellation aborts the compile promptly with an error wrapping
// ctx.Err(). The frontend and codegen stages are not interruptible (they
// are short relative to the pipeline).
func (c *Compiler) CompileUnitContext(ctx context.Context, unitName string, src []byte, st *core.UnitState) (*UnitResult, error) {
	// Span clock: the shared tracer's epoch when tracing, the unit start
	// otherwise — either way the stages of one unit share a timeline.
	tr := c.opts.Obs.Trace()
	tid := c.opts.Obs.ThreadID()
	unitStart := time.Now()
	now := func() int64 {
		if tr != nil {
			return tr.Now()
		}
		return time.Since(unitStart).Nanoseconds()
	}
	res := &UnitResult{}
	stage := func(name string, start int64, dur *int64) {
		*dur = now() - start
		tr.Emit(obs.Span{Name: name, Cat: obs.CatStage, Unit: unitName, TID: tid,
			Start: start, Dur: *dur})
	}
	t0 := now()

	start := now()
	m, fc, err := c.frontend(unitName, src, st)
	if err != nil {
		return nil, err
	}
	stage(StageFrontend, start, &res.FrontendNS)
	res.Module = m
	if pc := c.opts.Obs.PassCtrs(); pc != nil {
		pc.FuncsLowered.Add(int64(fc.lowered))
		pc.FuncsReused.Add(int64(fc.reused))
		pc.BytesLexed.Add(int64(fc.lexed))
	}

	start = now()
	newState, stats, err := c.driver.RunContext(ctx, m, st)
	if err != nil {
		return nil, err
	}
	if c.opts.Mode&(core.Records|core.Replay) != 0 {
		// Stateless compilation records nothing; returning the empty
		// state would only make callers persist dead bytes.
		res.State = newState
	}
	res.Stats = stats
	stage(StagePasses, start, &res.PassesNS)

	start = now()
	obj, err := c.driver.Codegen(&c.cg, m, newState, stats)
	if err != nil {
		return nil, err
	}
	stage(StageCodegen, start, &res.CodegenNS)
	res.Object = obj
	res.TotalNS = now() - t0
	tr.Emit(obs.Span{Name: "unit " + unitName, Cat: obs.CatUnit, Unit: unitName,
		TID: tid, Start: t0, Dur: res.TotalNS})
	return res, nil
}

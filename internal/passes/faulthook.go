package passes

// FaultHook is a test-only fault-injection pass: a registered,
// fingerprint-skippable pass that behaves as a perfectly dormant no-op
// until armed, then misbehaves on demand — panicking, mutating the IR
// while reporting "no change" (the lie a nondeterministic or impure pass
// tells, which the soundness sentinel exists to catch), or blocking to
// hold a build in flight. The adversity suites use it to prove panic
// isolation, sentinel detection, quarantine engagement/lift, and graceful
// serve drains against a real pipeline rather than mocks.
//
// Arming is process-global (compilers instantiate fresh pass instances per
// worker, so per-instance state would never reach them) and synchronized:
// worker goroutines consult the armed config concurrently. An arming is a
// faults.Log with one rule whose path is the function name; its injected
// log counts the firings.

import (
	"sync"
	"time"

	"statefulcc/internal/faults"
	"statefulcc/internal/ir"
)

// FaultMode selects what an armed FaultHook does when it fires.
type FaultMode int

// Fault modes.
const (
	// FaultNone leaves the hook dormant (same as disarmed).
	FaultNone FaultMode = iota
	// FaultPanic panics mid-pass, exercising the build system's recover()
	// boundary.
	FaultPanic
	// FaultMutate inserts a fresh dead constant into the function's entry
	// block but *reports no change* — simulating a nondeterministic/buggy
	// pass whose dormancy records lie. Each firing uses a different
	// constant, so repeated executions produce different IR.
	FaultMutate
	// FaultBlock parks the pass until ReleaseFaultHook (or a safety
	// timeout), holding a build in flight for drain/cancellation tests.
	FaultBlock
	// FaultObserve hands the function to FaultConfig.Observe and changes
	// nothing, for tests that follow what becomes of a unit's IR.
	FaultObserve
)

// FaultConfig describes one arming of the hook.
type FaultConfig struct {
	// Mode is what a firing does.
	Mode FaultMode
	// Func targets one function by exact name ("" fires on any function).
	Func string
	// Times bounds the number of firings before the hook auto-disarms
	// (0 = unlimited).
	Times int
	// Observe is what a FaultObserve firing calls, on the worker's goroutine.
	Observe func(*ir.Func)
}

var (
	faultMu   sync.Mutex
	faultCfg  FaultConfig
	faultLog  *faults.Log // nil while disarmed
	faultGate chan struct{}
)

// ArmFaultHook arms the fault hook for subsequent compilations. Arming
// replaces any previous arming and resets the fired count.
func ArmFaultHook(cfg FaultConfig) {
	faultMu.Lock()
	defer faultMu.Unlock()
	faultCfg = cfg
	faultLog = nil
	if cfg.Mode != FaultNone {
		rule := faults.Rule{Path: cfg.Func}
		if cfg.Times > 0 {
			rule.Nth, rule.Count = 1, cfg.Times
		}
		faultLog = faults.NewLog(rule)
	}
	if cfg.Mode == FaultBlock {
		faultGate = make(chan struct{})
	}
}

// DisarmFaultHook returns the hook to its dormant no-op behaviour and
// releases any blocked firings.
func DisarmFaultHook() {
	faultMu.Lock()
	defer faultMu.Unlock()
	faultCfg = FaultConfig{}
	faultLog = nil
	if faultGate != nil {
		close(faultGate)
		faultGate = nil
	}
}

// ReleaseFaultHook unblocks FaultBlock firings without disarming.
func ReleaseFaultHook() {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faultGate != nil {
		close(faultGate)
		faultGate = nil
	}
}

// FaultHookFired reports how many times the armed hook has fired.
func FaultHookFired() int {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faultLog == nil {
		return 0
	}
	return len(faultLog.Injected())
}

// faultHookFire consults the armed config for one pass execution,
// consuming a firing when it matches; seq numbers the firing.
func faultHookFire(fn string) (cfg FaultConfig, seq int, gate chan struct{}, fire bool) {
	faultMu.Lock()
	defer faultMu.Unlock()
	if faultLog == nil {
		return cfg, 0, nil, false
	}
	call, i := faultLog.Next("run", fn)
	if i < 0 {
		return cfg, 0, nil, false
	}
	return faultCfg, faultLog.Inject(call), faultGate, true
}

// FaultHook is the pass. Registered FunctionLocal so it is eligible for
// fingerprint-guarded skipping — required for the sentinel tests, and
// honest while disarmed (a true no-op).
type FaultHook struct{}

// Name returns the registry name.
func (*FaultHook) Name() string { return "faulthook" }

// Run fires the armed fault, if any. Disarmed (or non-matching) runs are
// dormant no-ops.
func (*FaultHook) Run(f *ir.Func) bool {
	cfg, seq, gate, fire := faultHookFire(f.Name)
	if !fire {
		return false
	}
	switch cfg.Mode {
	case FaultPanic:
		panic("faulthook: injected pass panic on " + f.Name)
	case FaultMutate:
		// A dead constant, unique per firing: the IR fingerprint changes but
		// the pass lies and reports dormant. Pipelines that place a dce
		// after this slot still produce byte-identical final output.
		if len(f.Blocks) > 0 {
			f.Blocks[0].AddInstr(f.ConstInt(1_000_003 + int64(seq)))
		}
		return false
	case FaultBlock:
		if gate != nil {
			select {
			case <-gate:
			case <-time.After(30 * time.Second): // safety: never wedge a suite
			}
		}
	case FaultObserve:
		cfg.Observe(f)
	}
	return false
}

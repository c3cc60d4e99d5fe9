// Package vm executes linked bytecode programs.
//
// The machine is deliberately simple: a flat word-addressed memory holding
// the global segment followed by an upward-growing call stack of frames;
// each frame is the function's value slots followed by its alloca scratch
// area. Pointers are plain indexes into the memory array, so out-of-range
// accesses are caught by explicit checks and surface as runtime errors
// rather than corruption.
//
// Program behaviour — the print/assert output stream plus main's return
// value — is the observable the compiler test-suite compares when checking
// that optimizations and the stateful pass manager preserve semantics.
package vm

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
)

// RuntimeError is a trap raised during execution.
type RuntimeError struct {
	Func    string
	Message string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s: %s", e.Func, e.Message)
}

// Config bounds an execution.
type Config struct {
	// MaxSteps aborts runaway programs (0 = default of 100M).
	MaxSteps int64
	// MaxStackWords bounds total stack usage (0 = default of 1M words).
	MaxStackWords int
	// Output receives print output; nil discards it.
	Output io.Writer
	// Profile enables per-function instruction and call counting
	// (Result.Profile); costs one counter increment per call.
	Profile bool
}

// Result summarizes a finished execution.
type Result struct {
	// ExitValue is main's return value (0 when main is void).
	ExitValue int64
	// Steps is the number of instructions executed.
	Steps int64
	// MaxStack is the high-water mark of stack words used.
	MaxStack int
	// Profile holds per-function execution counts when Config.Profile was
	// set (nil otherwise).
	Profile map[string]FuncProfile
}

// FuncProfile is one function's execution statistics.
type FuncProfile struct {
	// Calls is the number of times the function was entered.
	Calls int64
	// Steps is the number of instructions executed inside the function
	// (callees excluded).
	Steps int64
}

// TopBySteps returns function names sorted by descending step count.
func (r *Result) TopBySteps() []string {
	names := make([]string, 0, len(r.Profile))
	for name := range r.Profile {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := r.Profile[names[i]], r.Profile[names[j]]
		if pi.Steps != pj.Steps {
			return pi.Steps > pj.Steps
		}
		return names[i] < names[j]
	})
	return names
}

// Run executes the program's main function.
func Run(p *codegen.Program, cfg Config) (*Result, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 100_000_000
	}
	if cfg.MaxStackWords == 0 {
		cfg.MaxStackWords = 1 << 20
	}
	m := &machine{
		prog: p,
		cfg:  cfg,
		mem:  make([]int64, p.GlobalWords, p.GlobalWords+4096),
	}
	copy(m.mem, p.GlobalInit)
	if cfg.Profile {
		m.profCalls = make([]int64, len(p.Funcs))
		m.profSteps = make([]int64, len(p.Funcs))
		m.funcIndex = make(map[*codegen.FuncCode]int, len(p.Funcs))
		for i, f := range p.Funcs {
			m.funcIndex[f] = i
		}
	}

	entry := p.Funcs[p.EntryIndex]
	ret, err := m.call(entry, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Steps: m.steps, MaxStack: m.maxStack}
	if entry.HasResult {
		res.ExitValue = ret
	}
	if cfg.Profile {
		res.Profile = make(map[string]FuncProfile, len(p.Funcs))
		for i, f := range p.Funcs {
			if m.profCalls[i] > 0 {
				res.Profile[f.Name] = FuncProfile{Calls: m.profCalls[i], Steps: m.profSteps[i]}
			}
		}
	}
	return res, nil
}

// RunCapture executes the program and returns its printed output, which is
// the canonical "program behaviour" for differential testing.
func RunCapture(p *codegen.Program, cfg Config) (string, *Result, error) {
	var sb strings.Builder
	cfg.Output = &sb
	res, err := Run(p, cfg)
	return sb.String(), res, err
}

type machine struct {
	prog     *codegen.Program
	cfg      Config
	mem      []int64
	steps    int64
	maxStack int
	depth    int

	// Profiling state (nil unless Config.Profile).
	profCalls []int64
	profSteps []int64
	funcIndex map[*codegen.FuncCode]int
}

func (m *machine) trap(f *codegen.FuncCode, format string, args ...any) error {
	return &RuntimeError{Func: f.Name, Message: fmt.Sprintf(format, args...)}
}

// call pushes a frame for f, copies args into the first slots, and
// interprets until IRet.
func (m *machine) call(f *codegen.FuncCode, args []int64) (int64, error) {
	m.depth++
	defer func() { m.depth-- }()
	if m.depth > 10000 {
		return 0, m.trap(f, "call stack overflow (depth %d)", m.depth)
	}

	fp := len(m.mem)
	frame := f.FrameWords()
	if fp+frame-m.prog.GlobalWords > m.cfg.MaxStackWords {
		return 0, m.trap(f, "stack limit exceeded (%d words)", fp+frame)
	}
	// Grow zeroed frame storage: appending a fresh zero slice writes zeros
	// over any reused capacity, so frames always start zeroed.
	m.mem = append(m.mem, make([]int64, frame)...)
	if used := fp + frame - m.prog.GlobalWords; used > m.maxStack {
		m.maxStack = used
	}
	copy(m.mem[fp:], args)
	defer func() { m.mem = m.mem[:fp] }()

	fnIdx := -1
	if m.funcIndex != nil {
		fnIdx = m.funcIndex[f]
		m.profCalls[fnIdx]++
	}
	stepsAtEntry := m.steps
	var childSteps int64 // steps consumed by callees (excluded from self)

	slots := m.mem[fp : fp+frame]
	pc := 0
	code := f.Code
	for {
		if pc < 0 || pc >= len(code) {
			return 0, m.trap(f, "pc %d out of range", pc)
		}
		m.steps++
		if m.steps > m.cfg.MaxSteps {
			return 0, m.trap(f, "step limit exceeded (%d)", m.cfg.MaxSteps)
		}
		in := &code[pc]
		switch in.Op {
		case codegen.INop:
			pc++
		case codegen.IConst:
			slots[in.A] = in.Imm
			pc++
		case codegen.IMov:
			slots[in.A] = slots[in.B]
			pc++
		case codegen.IBin:
			x, y := slots[in.B], slots[in.C]
			r, ok := ir.EvalBinary(ir.Op(in.Sub), x, y)
			if !ok {
				return 0, m.trap(f, "%s by zero", ir.Op(in.Sub))
			}
			slots[in.A] = r
			pc++
		case codegen.IUn:
			r, ok := ir.EvalUnary(ir.Op(in.Sub), slots[in.B])
			if !ok {
				return 0, m.trap(f, "bad unary op %d", in.Sub)
			}
			slots[in.A] = r
			pc++
		case codegen.ILea:
			slots[in.A] = int64(fp) + in.Imm
			pc++
		case codegen.IGAddr:
			slots[in.A] = in.Imm
			pc++
		case codegen.IIdx:
			idx := slots[in.C]
			if idx < 0 || idx >= in.Imm {
				return 0, m.trap(f, "index %d out of bounds [0,%d)", idx, in.Imm)
			}
			slots[in.A] = slots[in.B] + idx
			pc++
		case codegen.ILoad:
			addr := slots[in.B]
			if addr < 0 || addr >= int64(len(m.mem)) {
				return 0, m.trap(f, "load from invalid address %d", addr)
			}
			slots[in.A] = m.mem[addr]
			pc++
		case codegen.IStore:
			addr := slots[in.A]
			if addr < 0 || addr >= int64(len(m.mem)) {
				return 0, m.trap(f, "store to invalid address %d", addr)
			}
			m.mem[addr] = slots[in.B]
			pc++
		case codegen.ICall:
			callee := m.prog.Funcs[in.Imm]
			args := make([]int64, in.C)
			for i, s := range f.ArgSlots(in) {
				args[i] = slots[s]
			}
			beforeCall := m.steps
			r, err := m.call(callee, args)
			if err != nil {
				return 0, err
			}
			childSteps += m.steps - beforeCall
			// The callee may have grown m.mem's backing array; refresh the
			// frame view.
			slots = m.mem[fp : fp+frame]
			if in.A >= 0 {
				slots[in.A] = r
			}
			pc++
		case codegen.IRet:
			if fnIdx >= 0 {
				m.profSteps[fnIdx] += m.steps - stepsAtEntry - childSteps
			}
			if in.A >= 0 {
				return slots[in.A], nil
			}
			return 0, nil
		case codegen.IJmp:
			pc = int(in.Imm)
		case codegen.IBr:
			if slots[in.A] != 0 {
				pc = int(in.Imm)
			} else {
				pc = int(in.B)
			}
		case codegen.IPrint:
			if m.cfg.Output != nil {
				var sb strings.Builder
				if in.Imm >= 0 {
					sb.WriteString(m.prog.Strings[in.Imm])
				}
				for i, s := range f.ArgSlots(in) {
					if i > 0 || in.Imm >= 0 {
						sb.WriteByte(' ')
					}
					fmt.Fprintf(&sb, "%d", slots[s])
				}
				sb.WriteByte('\n')
				if _, err := io.WriteString(m.cfg.Output, sb.String()); err != nil {
					return 0, m.trap(f, "output error: %v", err)
				}
			}
			pc++
		case codegen.IAssert:
			if slots[in.A] == 0 {
				msg := "assertion failed"
				if in.Imm >= 0 {
					msg = "assertion failed: " + m.prog.Strings[in.Imm]
				}
				return 0, m.trap(f, "%s", msg)
			}
			pc++
		default:
			return 0, m.trap(f, "illegal opcode %d", in.Op)
		}
	}
}

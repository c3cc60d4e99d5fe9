package compiler_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/state"
	"statefulcc/internal/workload"
)

// decoySrc is compiled by every worker before each real unit: a function
// several times the size of anything in the snapshot, full of what the
// passes keep tables on (promotable locals, phis, an unrollable loop, dead
// stores, redundant loads). It leaves every table of the worker's scratch
// long and full of entries for IR that is gone, which is the state a table
// sized too short, or grown without zeroing, would read from.
func decoySrc() string {
	src := "var _d [64]int;\nfunc _helper(x int) int { return x * 2 + 1; }\nfunc decoy(n int) int {\n    var acc int = 0;\n"
	for i := 0; i < 60; i++ {
		src += fmt.Sprintf("    var v%d int = acc + %d;\n", i, i)
		src += fmt.Sprintf("    if v%d > n { acc = acc + v%d; _d[%d] = acc; } else { acc = acc - _d[%d]; }\n", i, i, i%64, (i+1)%64)
		src += fmt.Sprintf("    for var j%d int = 0; j%d < 4; j%d++ { acc = acc + _helper(j%d) + _d[%d] + _d[%d]; }\n", i, i, i, i, i%64, i%64)
	}
	return src + "    return acc;\n}\n"
}

// brokenDecoySrc is a unit that does not type-check, larger than the decoy
// and made to leave the most behind. The checker goes through the whole file
// before the unit is refused, so when the error path leaves the frontend's
// tables they are longer and fuller than after any unit that compiles:
// initialized globals at the first declaration numbers (where probeSrc has
// globals without initializers), the decoy with _helper declared a second
// time (a declaration the checker gives no symbol, at a number that had one
// in the unit before), more folded constants, and only then the errors.
func brokenDecoySrc() string {
	src := ""
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf("var _g%d int = %d;\n", i, 11+i)
	}
	src += strings.Replace(decoySrc(), "func decoy(",
		"func _helper(p int, q int, r int) int { return p + q + r; }\nfunc decoy(", 1)
	src += "const _k = 7;\nfunc _more(a int, b int) int {\n    var s int = _k * 3;\n"
	for i := 0; i < 40; i++ {
		src += fmt.Sprintf("    var w%d int = (a + %d) * (_k + %d) + b;\n    s = s + w%d * _k;\n", i, i, i, i)
	}
	return src + "    return s;\n}\nfunc _broken() int { var x int = true; return y; }\n"
}

// cutDecoySrc is a unit that does not parse: the broken decoy's
// declarations and bodies — enough to fill chunks of every hot node kind in
// the worker's frontend arena — and then a function that stops mid-file,
// inside an expression inside a call's argument list inside a loop body, so
// the parser gives up with list stacks open and the arena part cut.
func cutDecoySrc() string {
	return strings.TrimSuffix(brokenDecoySrc(), "func _broken() int { var x int = true; return y; }\n") +
		"func _cut(a int, b int) int {\n    for var i int = 0; i < a; i++ {\n        b = _helper(a, (b + i) * "
}

// probeSrc joins the snapshot: its globals have no initializers, so a value
// left in the checker's table at their declaration numbers would become
// their initial value and change what probe_globals folds to.
func probeSrc() string {
	src, sum := "", "0"
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf("var _q%d int;\n", i)
		sum += fmt.Sprintf(" + _q%d", i)
	}
	return src + "func probe_globals() int { return " + sum + "; }\n"
}

// TestDirtyScratchAcrossWorkers compiles one snapshot on 1, 2 and 4 workers
// — each a compiler.Compiler with its own scratch, fed from a shared queue
// as the build system's pool does — dirtying every worker's scratch between
// units with the decoy, with a larger one that fails type-checking and with
// one that fails in the parser after filling part of the frontend arena,
// and holds each linked program to the one built by a fresh Compiler per
// unit, under every arm. Under each arm that keeps state, each unit then
// compiles again on its in-memory state on another worker than the one
// that compiled it: its functions' frontend is reused and its segments
// replay through the snapshot tables (the encoder's and the restore's) the
// decoy left behind, or, under Records alone, its dormant passes skip.
// Run under the race detector (make race) it also shows that no scratch is
// reachable from two workers.
func TestDirtyScratchAcrossWorkers(t *testing.T) {
	snap := workload.Generate(workload.QuickSuite()[1])
	snap["probe.mc"] = []byte(probeSrc())
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	decoy, broken, cut := []byte(decoySrc()), []byte(brokenDecoySrc()), []byte(cutDecoySrc())

	link := func(objs []*codegen.Object) [32]byte {
		t.Helper()
		p, err := codegen.Link(objs)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256([]byte(codegen.DisassembleProgram(p)))
	}
	newCompiler := func(mode compiler.Mode, reg *obs.Registry) *compiler.Compiler {
		var sink *obs.Sink
		if reg != nil {
			sink = &obs.Sink{Pass: reg.Pass()}
		}
		c, err := compiler.New(compiler.Options{Mode: mode, Obs: sink})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	for _, mode := range oracletest.Arms {
		clean := make([]*codegen.Object, len(names))
		for i, name := range names {
			res, err := newCompiler(mode, nil).CompileUnit(name, snap[name], nil)
			if err != nil {
				t.Fatal(err)
			}
			clean[i] = res.Object
		}
		want := link(clean)

		for _, workers := range []int{1, 2, 4} {
			objs := make([]*codegen.Object, len(names))
			states := make([]*core.UnitState, len(names))
			recorder := make([]int, len(names))
			queue := make(chan int)
			var wg sync.WaitGroup
			compilers := make([]*compiler.Compiler, workers)
			regs := make([]*obs.Registry, workers)
			for w := 0; w < workers; w++ {
				regs[w] = obs.NewRegistry()
				compilers[w] = newCompiler(mode, regs[w])
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := compilers[w]
					for i := range queue {
						if _, err := c.CompileUnit("decoy.mc", decoy, nil); err != nil {
							t.Errorf("decoy: %v", err)
						}
						if _, err := c.CompileUnit("broken.mc", broken, nil); err == nil || !strings.Contains(err.Error(), "undefined: y") || !strings.Contains(err.Error(), "_helper redeclared") {
							t.Errorf("broken decoy: got %v, want its type errors", err)
						}
						if _, err := c.CompileUnit("cut.mc", cut, nil); err == nil || !strings.Contains(err.Error(), "expected expression") {
							t.Errorf("cut decoy: got %v, want its syntax error", err)
						}
						res, err := c.CompileUnit(names[i], snap[names[i]], nil)
						if err != nil {
							t.Errorf("%s: %v", names[i], err)
							continue
						}
						objs[i], states[i], recorder[i] = res.Object, res.State, w
					}
				}()
			}
			for i := range names {
				queue <- i
			}
			close(queue)
			wg.Wait()
			if t.Failed() {
				return
			}
			if mode != compiler.ModeStateless {
				// Each unit compiles once more on its in-memory state, on
				// the next worker's compiler (the same one when there is
				// one), after the decoy has dirtied its scratch again:
				// under Replay every function's frontend is reused, every
				// segment replays, restored through the snapshot tables
				// the decoy left full — a memo recorded by one worker
				// restored by another — and every function's code is the
				// last object's; under Records alone dormant passes skip,
				// and the object must not move.
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c := compilers[w]
						for i := range names {
							if (recorder[i]+1)%workers != w {
								continue
							}
							if _, err := c.CompileUnit("decoy.mc", decoy, nil); err != nil {
								t.Errorf("decoy: %v", err)
							}
							before := regs[w].Snapshot()
							again, err := c.CompileUnit(names[i], snap[names[i]], states[i])
							if err != nil {
								t.Errorf("%s again: %v", names[i], err)
								continue
							}
							after := regs[w].Snapshot()
							lowered := after[obs.CtrFuncsLowered] - before[obs.CtrFuncsLowered]
							reused := after[obs.CtrFuncsReused] - before[obs.CtrFuncsReused]
							generated := after[obs.CtrCodeCompiled] - before[obs.CtrCodeCompiled]
							codeReused := after[obs.CtrCodeReused] - before[obs.CtrCodeReused]
							replayed, skipped := 0, 0
							for _, sl := range again.Stats.Slots {
								replayed += sl.Replayed
								skipped += sl.Skipped
							}
							if mode&core.Replay != 0 && (replayed == 0 || lowered != 0 || reused == 0) {
								t.Errorf("%s again: %d replayed, %d functions lowered, %d reused; want every function reused", names[i], replayed, lowered, reused)
							}
							if mode&core.Replay != 0 && (generated != 0 || codeReused == 0) {
								t.Errorf("%s again: code generated for %d functions, reused for %d; want every function's code reused", names[i], generated, codeReused)
							}
							if mode&core.Replay == 0 && codeReused != 0 {
								t.Errorf("%s again: code reused for %d functions without Replay", names[i], codeReused)
							}
							if mode == core.Records && skipped == 0 {
								t.Errorf("%s again: nothing skipped", names[i])
							}
							objs[i] = again.Object
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
			}
			if got := link(objs); got != want {
				t.Errorf("%s, %d workers: program differs from the one built on clean scratch", mode, workers)
			}
		}
	}
}

// TestNoBleedBetweenUnits compiles unit A, then B and the decoy, then A
// again on one Compiler, whose IR arena serves B from the chunks A's IR was
// cut from and the second A from the chunks the decoy left full. Both A
// results must equal a fresh compiler's A in IR, object and state bytes.
// A's first module is read before B compiles: it is valid only until the
// compiler's next compile.
func TestNoBleedBetweenUnits(t *testing.T) {
	snap := workload.Generate(workload.QuickSuite()[1])
	names := snap.Units()
	a, b := names[0], names[len(names)-1]
	type result struct{ ir, asm, state string }
	read := func(res *compiler.UnitResult) result {
		t.Helper()
		var buf bytes.Buffer
		if err := state.Encode(&buf, res.State); err != nil {
			t.Fatal(err)
		}
		return result{res.Module.String(), codegen.DisassembleObject(res.Object), buf.String()}
	}
	newCompiler := func() *compiler.Compiler {
		c, err := compiler.New(compiler.Options{Mode: compiler.ModeStateful})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	compile := func(c *compiler.Compiler, name string, src []byte) result {
		t.Helper()
		res, err := c.CompileUnit(name, src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return read(res)
	}

	want := compile(newCompiler(), a, snap[a])
	c := newCompiler()
	first := compile(c, a, snap[a])
	compile(c, b, snap[b])
	compile(c, "decoy.mc", []byte(decoySrc()))
	again := compile(c, a, snap[a])
	for i, got := range []result{first, again} {
		if got.ir != want.ir {
			t.Errorf("compile %d of %s: IR differs from a fresh compiler's\n--- got ---\n%s\n--- want ---\n%s", i+1, a, got.ir, want.ir)
		}
		if got.asm != want.asm {
			t.Errorf("compile %d of %s: object differs from a fresh compiler's", i+1, a)
		}
		if got.state != want.state {
			t.Errorf("compile %d of %s: state bytes differ from a fresh compiler's", i+1, a)
		}
	}
}

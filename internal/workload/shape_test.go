package workload_test

// The evaluation's shape checks, which no benchmark row gates: most pass
// executions are dormant, on cold builds and on recompiled changed files
// (F1); a dormant pass stays dormant across an edit to its file (F2); and
// the dormancy records are a fraction of the full-IR cache's state (T3);
// and the history's builds account for every unit and behave alike under
// every policy and on a parallel pool (T4, F7). EXPERIMENTS.md's appendix
// holds the per-project tables the thresholds were set from.

import (
	"fmt"
	"math"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// dormSite identifies one pass execution: a function (module passes use
// "") at a pipeline slot.
type dormSite struct {
	fn   string
	slot int
}

// collectDormancy compiles one unit stateless, pass by pass, and records
// whether each execution left the IR unchanged.
func collectDormancy(t *testing.T, unit string, src []byte) map[dormSite]bool {
	t.Helper()
	m, err := compiler.Frontend(unit, src)
	if err != nil {
		t.Fatalf("%s: %v", unit, err)
	}
	dormant := make(map[dormSite]bool)
	for slot, name := range passes.StandardPipeline {
		info, ok := passes.Lookup(name)
		if !ok {
			t.Fatalf("unknown pass %s", name)
		}
		if info.Module {
			dormant[dormSite{"", slot}] = !info.New().(passes.ModulePass).RunModule(m)
			continue
		}
		p := info.New().(passes.FuncPass)
		for _, f := range append([]*ir.Func(nil), m.Funcs...) {
			dormant[dormSite{f.Name, slot}] = !p.Run(f)
		}
	}
	return dormant
}

// ratio is a running fraction.
type ratio struct{ hit, total int }

func (r ratio) value() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hit) / float64(r.total)
}

// build is one build of the history: its unit accounting and the
// linked program's behaviour.
type build struct {
	compiled, cached int
	behaviour        string
}

// shape is what the checks read off one profile's edit history.
type shape struct {
	profile                  string
	coldDormant, incrDormant ratio // dormant executions / executions
	persistence              ratio // still dormant / dormant before the edit
	stateRatio               float64
	builds                   map[compiler.Mode][]build // cold build first
}

// policies are the builders the history runs on: the serial stateless
// compiler every other policy is held to, the stateful policy on four
// workers, and the full cache on the default pool (its footprint grows
// with the pool, and T3's threshold was set at the default).
var policies = []buildsys.Options{
	{Mode: compiler.ModeStateless, Workers: 1},
	{Mode: compiler.ModeStateful, Workers: 4},
	{Mode: compiler.ModeFullCache},
}

func measureShape(t *testing.T, p workload.Profile) shape {
	t.Helper()
	base := workload.Generate(p)
	commits := workload.GenerateHistory(base, p.Seed^1, 4, workload.DefaultCommitOptions()).Commits
	s := shape{profile: p.Name, builds: make(map[compiler.Mode][]build)}
	count := func(r *ratio, bm map[dormSite]bool) {
		for _, d := range bm {
			r.total++
			if d {
				r.hit++
			}
		}
	}
	for _, unit := range base.Units() {
		count(&s.coldDormant, collectDormancy(t, unit, base[unit]))
	}
	prev := base
	for _, commit := range commits {
		for _, unit := range project.Diff(prev, commit) {
			src, ok := commit[unit]
			if !ok {
				continue
			}
			next := collectDormancy(t, unit, src)
			count(&s.incrDormant, next)
			if prevSrc, ok := prev[unit]; ok {
				for site, d := range collectDormancy(t, unit, prevSrc) {
					if nd, ok := next[site]; ok && d {
						s.persistence.total++
						if nd {
							s.persistence.hit++
						}
					}
				}
			}
		}
		prev = commit
	}

	stateBytes := make(map[compiler.Mode]int)
	for _, opts := range policies {
		b, err := buildsys.NewBuilder(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, snap := range append([]project.Snapshot{base}, commits...) {
			rep, err := b.Build(snap)
			if err != nil {
				t.Fatalf("%s build %d: %v", opts.Mode, i, err)
			}
			out, res, err := vm.RunCapture(rep.Program, vm.Config{})
			if err != nil {
				t.Fatalf("%s build %d: run: %v", opts.Mode, i, err)
			}
			s.builds[opts.Mode] = append(s.builds[opts.Mode], build{
				compiled: rep.UnitsCompiled, cached: rep.UnitsCached,
				behaviour: fmt.Sprintf("exit %d\n%s", res.ExitValue, out),
			})
			stateBytes[opts.Mode] = rep.StateBytes
		}
	}
	if sf := stateBytes[compiler.ModeStateful]; sf > 0 {
		s.stateRatio = float64(stateBytes[compiler.ModeFullCache]) / float64(sf)
	}
	return s
}

// within fails the check unless v lies in [min, max].
func within(t *testing.T, s shape, name string, v, min, max float64) {
	t.Helper()
	t.Logf("%s: %s = %.4f", s.profile, name, v)
	if v < min || v > max {
		t.Errorf("%s: %s = %.4f, want in [%g, %g]", s.profile, name, v, min, max)
	}
}

// behavesLike fails the check unless the mode's first n builds behave as
// the serial stateless compiler's.
func behavesLike(t *testing.T, s shape, mode compiler.Mode, n int) {
	t.Helper()
	ref := s.builds[compiler.ModeStateless]
	for i, b := range s.builds[mode][:n] {
		if b.behaviour != ref[i].behaviour {
			t.Errorf("%s: %s build %d diverged from stateless:\n%s\nwant:\n%s", s.profile, mode, i, b.behaviour, ref[i].behaviour)
		}
	}
}

// TestEvaluationShape holds the first two standard-suite profiles, over
// four commits of the default shape, to the paper's motivation: at least
// 30 % of pass executions dormant (F1), a dormant pass still dormant after
// an edit to its file at least half the time (F2), and full-IR caching
// keeping at least twice the dormancy records' state (T3). It also checks
// that every build of the history accounts for each unit once, and that
// the stateful and full-cache programs, built on a parallel pool, behave
// as the serial stateless compiler's (T4; F7 for the cold build). Each check
// is named for the test that held it before the table harness was deleted.
func TestEvaluationShape(t *testing.T) {
	checks := []struct {
		name  string
		check func(t *testing.T, s shape)
	}{
		{"Figure1DormantFraction", func(t *testing.T, s shape) {
			within(t, s, "cold-build dormant fraction", s.coldDormant.value(), 0.30, 1)
			within(t, s, "incremental dormant fraction", s.incrDormant.value(), 0.30, 1)
		}},
		{"Figure2Persistence", func(t *testing.T, s shape) {
			within(t, s, "P(dormant stays dormant)", s.persistence.value(), 0.50, 1)
			t.Logf("%s: observations = %d", s.profile, s.persistence.total)
		}},
		{"Table3StateOverhead", func(t *testing.T, s shape) {
			within(t, s, "fullcache/stateful state bytes", s.stateRatio, 2, math.Inf(1))
		}},
		{"RunHistoryShapes", func(t *testing.T, s shape) {
			builds := s.builds[compiler.ModeStateful]
			if len(builds) != 5 {
				t.Fatalf("%s: builds = %d, want a cold build and 4 incremental", s.profile, len(builds))
			}
			units := builds[0].compiled
			if units == 0 || builds[0].cached != 0 {
				t.Errorf("%s: cold build compiled %d, cached %d", s.profile, units, builds[0].cached)
			}
			for i, b := range builds[1:] {
				if b.compiled+b.cached != units {
					t.Errorf("%s: build %d: unit accounting broken: %d+%d != %d", s.profile, i+1, b.compiled, b.cached, units)
				}
			}
		}},
		{"Table4Correctness", func(t *testing.T, s shape) {
			behavesLike(t, s, compiler.ModeStateful, 5)
			behavesLike(t, s, compiler.ModeFullCache, 5)
		}},
		{"Figure7Parallelism", func(t *testing.T, s shape) {
			behavesLike(t, s, compiler.ModeStateful, 1)
		}},
	}
	var shapes []shape
	for _, p := range workload.StandardSuite()[:2] {
		shapes = append(shapes, measureShape(t, p))
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range shapes {
				c.check(t, s)
			}
		})
	}
}

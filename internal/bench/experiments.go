package bench

// The experiment implementations, one per table/figure in DESIGN.md §5.
// Each takes the project suite to run over (tests pass a small subset, the
// cmd/experiments binary passes workload.StandardSuite()) and returns a
// rendered Table.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"statefulcc/internal/bitcode"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/workload"
)

// projectShape summarizes a generated project.
type projectShape struct {
	units, funcs, lines, bytes int
}

func shapeOf(p workload.Profile) (projectShape, error) {
	snap := workload.Generate(p)
	sh := projectShape{units: len(snap), lines: snap.Lines(), bytes: snap.TotalBytes()}
	for _, unit := range snap.Units() {
		m, err := compiler.Frontend(unit, snap[unit])
		if err != nil {
			return sh, fmt.Errorf("%s/%s: %w", p.Name, unit, err)
		}
		sh.funcs += len(m.Funcs)
	}
	return sh, nil
}

// Table1Characteristics reproduces the benchmark-characteristics table.
func Table1Characteristics(suite []workload.Profile) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   "Benchmark project characteristics",
		Columns: []string{"project", "files", "functions", "lines", "KiB"},
		Notes: []string{
			"synthetic MiniC projects standing in for the paper's real-world C++ projects (DESIGN.md §6)",
		},
	}
	for _, p := range suite {
		sh, err := shapeOf(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, sh.units, sh.funcs, sh.lines, kb(sh.bytes))
	}
	return t, nil
}

// Figure1DormantFraction reproduces the motivation figure: the fraction of
// pass executions that are dormant when recompiling edited files.
func Figure1DormantFraction(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "F1",
		Title:   "Dormant fraction of pass executions in incremental builds",
		Columns: []string{"project", "cold-build dormant", "incremental dormant (changed files)"},
		Notes: []string{
			"paper's motivation: most pass executions do nothing, especially on incremental rebuilds",
		},
	}
	pipeline := passes.StandardPipeline
	for _, p := range suite {
		base := workload.Generate(p)
		hist := workload.GenerateHistory(base, p.Seed^cfg.Seed, cfg.Commits, cfg.CommitShape)

		var coldDorm, coldTotal float64
		for _, unit := range base.Units() {
			bm, err := collectDormancy(unit, base[unit], pipeline)
			if err != nil {
				return nil, err
			}
			coldDorm += dormantFractionOf(bm) * float64(len(bm))
			coldTotal += float64(len(bm))
		}

		var incDorm, incTotal float64
		prev := base
		for _, commit := range hist.Commits {
			for _, unit := range project.Diff(prev, commit) {
				if _, ok := commit[unit]; !ok {
					continue
				}
				bm, err := collectDormancy(unit, commit[unit], pipeline)
				if err != nil {
					return nil, err
				}
				incDorm += dormantFractionOf(bm) * float64(len(bm))
				incTotal += float64(len(bm))
			}
			prev = commit
		}
		incFrac := 0.0
		if incTotal > 0 {
			incFrac = incDorm / incTotal
		}
		t.AddRow(p.Name, pct(coldDorm/coldTotal), pct(incFrac))
	}
	return t, nil
}

// Figure2DormancyPersistence measures how reliably a dormant pass stays
// dormant across a commit touching its file.
func Figure2DormancyPersistence(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "F2",
		Title:   "Dormancy persistence across commits (changed files only)",
		Columns: []string{"project", "P(dormant stays dormant)", "observations"},
		Notes: []string{
			"high persistence is what makes dormancy records predictive; the fingerprint guard handles the remainder soundly",
		},
	}
	pipeline := passes.StandardPipeline
	for _, p := range suite {
		base := workload.Generate(p)
		hist := workload.GenerateHistory(base, p.Seed^cfg.Seed, cfg.Commits, cfg.CommitShape)
		var weighted float64
		var totalObs int
		prev := base
		for _, commit := range hist.Commits {
			for _, unit := range project.Diff(prev, commit) {
				prevSrc, okPrev := prev[unit]
				nextSrc, okNext := commit[unit]
				if !okPrev || !okNext {
					continue
				}
				prevBM, err := collectDormancy(unit, prevSrc, pipeline)
				if err != nil {
					return nil, err
				}
				nextBM, err := collectDormancy(unit, nextSrc, pipeline)
				if err != nil {
					return nil, err
				}
				frac, obs := persistence(prevBM, nextBM)
				weighted += frac * float64(obs)
				totalObs += obs
			}
			prev = commit
		}
		if totalObs == 0 {
			t.AddRow(p.Name, "n/a", 0)
			continue
		}
		t.AddRow(p.Name, pct(weighted/float64(totalObs)), totalObs)
	}
	return t, nil
}

// Table2EndToEnd reproduces the headline result: end-to-end incremental
// build time, stateless vs stateful, with the mean speedup the paper
// reports as 6.72%.
func Table2EndToEnd(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "T2",
		Title: "End-to-end incremental build time (mean per commit)",
		Columns: []string{
			"project", "stateless ms", "stateful ms", "speedup", "passes skipped/commit",
		},
		Notes: []string{
			"paper reports a 6.72% mean end-to-end speedup on Clang; shape to match: single-digit-% wins that grow with dormancy",
		},
	}
	var geoAccum float64
	var count int
	for _, p := range suite {
		runs, err := CompareHistories(p, []compiler.Mode{compiler.ModeStateless, compiler.ModeStateful}, cfg)
		if err != nil {
			return nil, err
		}
		sl := runs[compiler.ModeStateless].MeanIncrementalNS()
		sf := runs[compiler.ModeStateful].MeanIncrementalNS()
		speedup := float64(sl)/float64(sf) - 1

		var skipped int
		for _, s := range runs[compiler.ModeStateful].Incremental {
			if s.Stats != nil {
				_, _, sk := s.Stats.Totals()
				skipped += sk
			}
		}
		perCommit := float64(skipped) / float64(len(runs[compiler.ModeStateful].Incremental))
		t.AddRow(p.Name, ms(sl), ms(sf), pct(speedup), fmt.Sprintf("%.1f", perCommit))
		geoAccum += speedup
		count++
	}
	if count > 0 {
		t.AddRow("MEAN", "", "", pct(geoAccum/float64(count)), "")
	}
	return t, nil
}

// Figure3PerFileCDF reports the distribution of per-file compile-time
// speedups on recompiled units.
func Figure3PerFileCDF(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "F3",
		Title:   "Per-file compile-time speedup distribution (stateful vs stateless)",
		Columns: []string{"project", "P10", "P25", "P50", "P75", "P90"},
		Notes: []string{
			"per-changed-file gains exceed the end-to-end number because linking and cached files dilute the total",
		},
	}
	for _, p := range suite {
		runs, err := CompareHistories(p, []compiler.Mode{compiler.ModeStateless, compiler.ModeStateful}, cfg)
		if err != nil {
			return nil, err
		}
		var ratios []float64
		slRun, sfRun := runs[compiler.ModeStateless], runs[compiler.ModeStateful]
		for i := range sfRun.Incremental {
			if i >= len(slRun.Incremental) {
				break
			}
			for unit, sfNS := range sfRun.Incremental[i].PerUnitNS {
				if slNS, ok := slRun.Incremental[i].PerUnitNS[unit]; ok && sfNS > 0 {
					ratios = append(ratios, float64(slNS)/float64(sfNS)-1)
				}
			}
		}
		if len(ratios) == 0 {
			t.AddRow(p.Name, "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		sort.Float64s(ratios)
		q := func(f float64) string { return pct(ratios[int(f*float64(len(ratios)-1))]) }
		t.AddRow(p.Name, q(0.10), q(0.25), q(0.50), q(0.75), q(0.90))
	}
	return t, nil
}

// Figure4EditSize sweeps the number of files touched per commit.
func Figure4EditSize(p workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "F4",
		Title:   fmt.Sprintf("Speedup vs edit size (project %s)", p.Name),
		Columns: []string{"files touched/commit", "stateless ms", "stateful ms", "speedup"},
		Notes: []string{
			"larger edits recompile more files, giving the stateful compiler more dormant passes to skip per build — until edits start invalidating the records themselves",
		},
	}
	for _, units := range []int{1, 2, 4, 8} {
		c := cfg
		c.CommitShape = workload.CommitOptions{Units: units, EditsPerUnit: cfg.CommitShape.EditsPerUnit}
		runs, err := CompareHistories(p, []compiler.Mode{compiler.ModeStateless, compiler.ModeStateful}, c)
		if err != nil {
			return nil, err
		}
		sl := runs[compiler.ModeStateless].MeanIncrementalNS()
		sf := runs[compiler.ModeStateful].MeanIncrementalNS()
		t.AddRow(units, ms(sl), ms(sf), pct(float64(sl)/float64(sf)-1))
	}
	return t, nil
}

// Table3StateOverhead reports the dormancy-state footprint and store I/O
// cost, against the full-IR cache comparator.
func Table3StateOverhead(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "T3",
		Title: "Compiler state overhead after the edit history",
		Columns: []string{
			"project", "functions", "state KiB", "bytes/function", "save+load µs", "fullcache KiB", "ratio",
		},
		Notes: []string{
			"dormancy state scales with pipeline length, full-IR caching with code size: the gap here (small synthetic functions) widens by orders of magnitude on real C++ function sizes",
		},
	}
	for _, p := range suite {
		sh, err := shapeOf(p)
		if err != nil {
			return nil, err
		}
		sfRun, err := RunHistory(p, compiler.ModeStateful, cfg)
		if err != nil {
			return nil, err
		}
		fcRun, err := RunHistory(p, compiler.ModeFullCache, cfg)
		if err != nil {
			return nil, err
		}
		sfBytes := lastStateBytes(sfRun)
		fcBytes := lastStateBytes(fcRun)

		// Measure save+load on a representative unit state.
		ioUS := measureStateIO(p)

		ratio := "n/a"
		if sfBytes > 0 {
			ratio = fmt.Sprintf("%.1fx", float64(fcBytes)/float64(sfBytes))
		}
		t.AddRow(p.Name, sh.funcs, kb(sfBytes), fmt.Sprintf("%.1f", float64(sfBytes)/float64(max(1, sh.funcs))),
			fmt.Sprintf("%.1f", ioUS), kb(fcBytes), ratio)
	}
	return t, nil
}

func lastStateBytes(r *ProjectRun) int {
	if len(r.Incremental) > 0 {
		return r.Incremental[len(r.Incremental)-1].StateBytes
	}
	return r.Cold.StateBytes
}

// measureStateIO times one save+load cycle of a unit's dormancy state.
func measureStateIO(p workload.Profile) float64 {
	snap := workload.Generate(p)
	units := snap.Units()
	d, err := core.NewDriver(core.Options{Policy: core.Stateful})
	if err != nil {
		return 0
	}
	m, err := compiler.Frontend(units[0], snap[units[0]])
	if err != nil {
		return 0
	}
	st, _, err := d.Run(m, nil)
	if err != nil {
		return 0
	}
	var buf sliceBuffer
	start := time.Now()
	const iters = 16
	for i := 0; i < iters; i++ {
		buf.b = buf.b[:0]
		buf.r = 0
		if err := state.Encode(&buf, st); err != nil {
			return 0
		}
		if _, err := state.Decode(&buf); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Microseconds()) / iters
}

type sliceBuffer struct {
	b []byte
	r int
}

func (s *sliceBuffer) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *sliceBuffer) Read(p []byte) (int, error) {
	if s.r >= len(s.b) {
		return 0, io.EOF
	}
	n := copy(p, s.b[s.r:])
	s.r += n
	return n, nil
}

// Table4Correctness executes every built program under every policy and
// checks output equivalence build by build.
func Table4Correctness(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	cfg.RunPrograms = true
	t := &Table{
		ID:      "T4",
		Title:   "Output equivalence across policies (per-build program behaviour)",
		Columns: []string{"project", "builds", "stateful==stateless", "fullcache==stateless"},
		Notes: []string{
			"every simulated commit's program is executed under each policy and outputs compared",
		},
	}
	for _, p := range suite {
		runs, err := CompareHistories(p,
			[]compiler.Mode{compiler.ModeStateless, compiler.ModeStateful, compiler.ModeFullCache}, cfg)
		if err != nil {
			return nil, err
		}
		base := runs[compiler.ModeStateless]
		check := func(other *ProjectRun) string {
			n, match := 0, 0
			pairs := append([]BuildSample{base.Cold}, base.Incremental...)
			otherPairs := append([]BuildSample{other.Cold}, other.Incremental...)
			for i := range pairs {
				if i >= len(otherPairs) {
					break
				}
				n++
				if pairs[i].Output == otherPairs[i].Output && pairs[i].Exit == otherPairs[i].Exit {
					match++
				}
			}
			return fmt.Sprintf("%d/%d", match, n)
		}
		t.AddRow(p.Name, len(base.Incremental)+1,
			check(runs[compiler.ModeStateful]), check(runs[compiler.ModeFullCache]))
	}
	return t, nil
}

// Figure5PerPassSavings attributes skipped time to passes.
func Figure5PerPassSavings(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "F5",
		Title:   "Per-pass skipping profile (aggregated over incremental builds)",
		Columns: []string{"pass", "skipped", "runs", "dormant runs"},
		Notes: []string{
			"which pipeline stages pay for statefulness: cleanup passes re-run after enabling passes dominate",
		},
	}
	agg := &core.Stats{}
	for _, p := range suite {
		run, err := RunHistory(p, compiler.ModeStateful, cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range run.Incremental {
			if s.Stats != nil {
				agg.Merge(s.Stats)
			}
		}
	}
	byPass := agg.ByPass()
	names := make([]string, 0, len(byPass))
	for name := range byPass {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := byPass[names[i]].Skipped, byPass[names[j]].Skipped; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		s := byPass[name]
		t.AddRow(s.Pass, s.Skipped, s.Runs, s.Dormant)
	}
	return t, nil
}

// Table5VsFullCache compares the stateful compiler against the full-IR
// caching comparator on both time and state size.
func Table5VsFullCache(suite []workload.Profile, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:    "T5",
		Title: "Stateful (dormancy records) vs full-IR function caching",
		Columns: []string{
			"project", "stateless ms", "stateful ms", "fullcache ms", "stateful KiB", "fullcache KiB",
		},
		Notes: []string{
			"full caching wins more time on cache hits but pays orders of magnitude more state; the paper argues the dormancy point is the better trade for a compiler default",
		},
	}
	for _, p := range suite {
		runs, err := CompareHistories(p,
			[]compiler.Mode{compiler.ModeStateless, compiler.ModeStateful, compiler.ModeFullCache}, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name,
			ms(runs[compiler.ModeStateless].MeanIncrementalNS()),
			ms(runs[compiler.ModeStateful].MeanIncrementalNS()),
			ms(runs[compiler.ModeFullCache].MeanIncrementalNS()),
			kb(lastStateBytes(runs[compiler.ModeStateful])),
			kb(lastStateBytes(runs[compiler.ModeFullCache])))
	}
	return t, nil
}

// ModuleIRSize is a helper surfaced for the statedump tool: the bitcode
// footprint of a compiled unit, for comparing against dormancy state.
func ModuleIRSize(unit string, src []byte) (int, error) {
	m, err := compiler.Frontend(unit, src)
	if err != nil {
		return 0, err
	}
	if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
		return 0, err
	}
	return bitcode.SizeOfModule(m), nil
}

package bench

// History runners: build a project's commit sequence under a policy and
// collect per-build measurements. All experiments are assembled from these
// samples.

import (
	"fmt"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/project"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// Config bounds an experiment run.
type Config struct {
	// Commits is the length of each simulated edit history (default 20).
	Commits int
	// CommitShape is the per-commit edit size (default workload default).
	CommitShape workload.CommitOptions
	// Repeats re-runs timing-sensitive experiments and keeps the minimum
	// (default 1; the harness favours medians over repeats for speed).
	Repeats int
	// Seed offsets history generation (default 1).
	Seed int64
	// RunPrograms executes each built program (correctness experiments).
	RunPrograms bool
}

func (c Config) withDefaults() Config {
	if c.Commits == 0 {
		c.Commits = 20
	}
	if c.CommitShape.Units == 0 {
		c.CommitShape = workload.DefaultCommitOptions()
	}
	if c.Repeats == 0 {
		c.Repeats = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// BuildSample measures one build.
type BuildSample struct {
	// TotalNS is the end-to-end build wall time.
	TotalNS int64
	// CompileNS / LinkNS split it.
	CompileNS, LinkNS int64
	// UnitsCompiled / UnitsCached partition the units.
	UnitsCompiled, UnitsCached int
	// PerUnitNS maps each recompiled unit to its compile time.
	PerUnitNS map[string]int64
	// Stats aggregates pipeline statistics (nil for fullcache).
	Stats *core.Stats
	// StateBytes is the persistent-state footprint after this build.
	StateBytes int
	// Output/Exit capture program behaviour when RunPrograms is set.
	Output string
	Exit   int64
}

// ProjectRun is one project × policy history.
type ProjectRun struct {
	Profile workload.Profile
	Mode    compiler.Mode
	// Cold is build 0 (everything compiles).
	Cold BuildSample
	// Incremental holds builds 1..N (one per commit).
	Incremental []BuildSample
}

// MeanIncrementalNS averages incremental build times.
func (r *ProjectRun) MeanIncrementalNS() int64 {
	if len(r.Incremental) == 0 {
		return 0
	}
	var sum int64
	for _, s := range r.Incremental {
		sum += s.TotalNS
	}
	return sum / int64(len(r.Incremental))
}

// RunHistory executes the full history for one project under one policy.
// The same seed produces the same snapshots and edits for every policy, so
// cross-policy comparisons see identical workloads. With Repeats > 1 the
// whole history is replayed on fresh builders and each build keeps its
// minimum observed wall time (standard noise reduction for wall-clock
// benchmarking); non-timing fields come from the first repeat.
func RunHistory(p workload.Profile, mode compiler.Mode, cfg Config) (*ProjectRun, error) {
	cfg = cfg.withDefaults()
	base := workload.Generate(p)
	hist := workload.GenerateHistory(base, p.Seed^cfg.Seed, cfg.Commits, cfg.CommitShape)
	snapshots := append([]project.Snapshot{base}, hist.Commits...)

	var run *ProjectRun
	for rep := 0; rep < cfg.Repeats; rep++ {
		builder, err := buildsys.NewBuilder(buildsys.Options{Mode: mode})
		if err != nil {
			return nil, err
		}
		cur := &ProjectRun{Profile: p, Mode: mode}
		for i, snap := range snapshots {
			sample, err := buildOnce(builder, snap, cfg.RunPrograms && rep == 0)
			if err != nil {
				return nil, fmt.Errorf("%s/%s build %d: %w", p.Name, mode, i, err)
			}
			if i == 0 {
				cur.Cold = *sample
			} else {
				cur.Incremental = append(cur.Incremental, *sample)
			}
		}
		if run == nil {
			run = cur
			continue
		}
		// Keep per-build minimum times.
		if cur.Cold.TotalNS < run.Cold.TotalNS {
			run.Cold.TotalNS = cur.Cold.TotalNS
			run.Cold.CompileNS = cur.Cold.CompileNS
			run.Cold.LinkNS = cur.Cold.LinkNS
		}
		for i := range run.Incremental {
			if i >= len(cur.Incremental) {
				break
			}
			if cur.Incremental[i].TotalNS < run.Incremental[i].TotalNS {
				run.Incremental[i].TotalNS = cur.Incremental[i].TotalNS
				run.Incremental[i].CompileNS = cur.Incremental[i].CompileNS
				run.Incremental[i].LinkNS = cur.Incremental[i].LinkNS
				for unit, ns := range cur.Incremental[i].PerUnitNS {
					if old, ok := run.Incremental[i].PerUnitNS[unit]; !ok || ns < old {
						run.Incremental[i].PerUnitNS[unit] = ns
					}
				}
			}
		}
	}
	return run, nil
}

func buildOnce(b *buildsys.Builder, snap project.Snapshot, exec bool) (*BuildSample, error) {
	rep, err := b.Build(snap)
	if err != nil {
		return nil, err
	}
	s := &BuildSample{
		TotalNS:       rep.TotalNS,
		CompileNS:     rep.CompileNS,
		LinkNS:        rep.LinkNS,
		UnitsCompiled: rep.UnitsCompiled,
		UnitsCached:   rep.UnitsCached,
		StateBytes:    rep.StateBytes,
		PerUnitNS:     make(map[string]int64),
	}
	for unit, ur := range rep.Units {
		if ur.Compiled {
			s.PerUnitNS[unit] = ur.CompileNS
		}
	}
	if st := rep.Stats(); st != nil && len(st.Slots) > 0 {
		s.Stats = st
	}
	if exec {
		out, res, err := vm.RunCapture(rep.Program, vm.Config{})
		if err != nil {
			return nil, fmt.Errorf("program execution: %w", err)
		}
		s.Output = out
		s.Exit = res.ExitValue
	}
	return s, nil
}

// CompareHistories runs the same project under several policies.
func CompareHistories(p workload.Profile, modes []compiler.Mode, cfg Config) (map[compiler.Mode]*ProjectRun, error) {
	out := make(map[compiler.Mode]*ProjectRun, len(modes))
	for _, mode := range modes {
		r, err := RunHistory(p, mode, cfg)
		if err != nil {
			return nil, err
		}
		out[mode] = r
	}
	return out, nil
}

package main

// Input generation and the lived-in fixture.
//
// Every run derives its inputs from (profile, seed): the project comes from
// the workload generator, and one edit stream — one workload.Editor for the
// whole run — produces first the warm-up commits the fixture is built from
// and then the commits a workload measures. The fixture is the state
// directory a developer's checkout holds after a few days of work: warm
// per-unit dormancy state and a flight recorder at its record limit.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/history"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// config is what fixes a run's inputs. The command line sets the seed only;
// the other fields differ from recordConfig's in the harness's tests, which
// run the benchmark at toy size.
type config struct {
	Profile string // workload profile name
	Warm    int    // warm-up commits folded into the fixture
	Commits int    // measured commits per round; 0 means each workload's own
	Seed    int64
}

// recordConfig is the benchmark of record: the megarepo after 200 commits,
// each workload at its own round size.
func recordConfig(seed int64) config {
	return config{Profile: workload.MegaProfile().Name, Warm: 200, Seed: seed}
}

func (c config) profile() (workload.Profile, error) {
	if mega := workload.MegaProfile(); c.Profile == mega.Name {
		return mega, nil
	}
	for _, p := range workload.StandardSuite() {
		if p.Name == c.Profile {
			return p, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("unknown profile %q", c.Profile)
}

// stream is the run's edit history. It owns the only Editor: the Editor
// numbers the helper functions it adds (_edit1, _edit2, …) from its own
// counter, so a second Editor started on an already-edited tree re-issues
// names the tree already holds and the project stops compiling. A process
// that joins later (a workload's child process) therefore replays the stream
// from the generated base instead of starting a fresh Editor at the fixture.
type stream struct {
	ed   *workload.Editor
	snap project.Snapshot
}

func newStream(p workload.Profile, seed int64) *stream {
	return &stream{ed: workload.NewEditor(seed), snap: workload.Generate(p)}
}

// next applies one commit. Units the commit left alone share their bytes
// with the previous snapshot, so a held list of commits costs only the
// edited units.
func (s *stream) next(shape workload.CommitOptions) project.Snapshot {
	next, _ := s.ed.Commit(s.snap, shape)
	for name, src := range s.snap {
		if bytes.Equal(next[name], src) {
			next[name] = src
		}
	}
	s.snap = next
	return next
}

// warmed returns the stream positioned at the fixture: cfg.Warm default
// commits past the generated base.
func warmed(cfg config) (*stream, error) {
	p, err := cfg.profile()
	if err != nil {
		return nil, err
	}
	s := newStream(p, cfg.Seed)
	for i := 0; i < cfg.Warm; i++ {
		s.next(workload.DefaultCommitOptions())
	}
	return s, nil
}

// stateDirName is the state directory inside a fixture or round directory.
const stateDirName = "state"

// fixtureInfo describes a built fixture.
type fixtureInfo struct {
	Dir         string
	Seconds     float64
	ColdBuildMS float64
	Records     int // in the flight recorder's file
}

// buildFixture builds the lived-in state directory under dir: one cold build
// and cfg.Warm default commits through a resident stateful builder whose
// only non-default option is the state directory.
//
// The flight recorder re-reads its whole file on every append, which makes
// 200 warm-up builds cost ~22 s of the same work the measured builds then
// price. The fixture skips that repetition and nothing else: each build
// appends to an empty history file, the one-record files are collected, and
// the records are renumbered and written back as the file 201 appends under
// the default limit leave behind (benchmark_test.go holds the two equal).
func buildFixture(dir string, cfg config) (fixtureInfo, error) {
	start := time.Now()
	info := fixtureInfo{Dir: dir}
	p, err := cfg.profile()
	if err != nil {
		return info, err
	}
	stateDir := filepath.Join(dir, stateDirName)
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: stateDir})
	if err != nil {
		return info, err
	}
	hpath := history.Path(stateDir)
	var lines bytes.Buffer
	build := func(snap project.Snapshot) error {
		rep, err := b.Build(snap)
		if err != nil {
			return err
		}
		if len(rep.Warnings) > 0 {
			return fmt.Errorf("fixture build ran degraded: %s", rep.Warnings[0])
		}
		line, err := os.ReadFile(hpath)
		if err != nil {
			return err
		}
		lines.Write(line)
		return os.Remove(hpath)
	}

	s := newStream(p, cfg.Seed)
	t0 := time.Now()
	if err := build(s.snap); err != nil {
		return info, fmt.Errorf("fixture: cold build: %w", err)
	}
	info.ColdBuildMS = ms(time.Since(t0))
	for i := 0; i < cfg.Warm; i++ {
		if err := build(s.next(workload.DefaultCommitOptions())); err != nil {
			return info, fmt.Errorf("fixture: warm-up commit %d: %w", i+1, err)
		}
	}

	if err := os.WriteFile(hpath, lines.Bytes(), 0o644); err != nil {
		return info, err
	}
	recs, err := history.Load(hpath)
	if err != nil {
		return info, err
	}
	if len(recs) != cfg.Warm+1 {
		return info, fmt.Errorf("fixture: %d history records for %d builds", len(recs), cfg.Warm+1)
	}
	lines.Reset()
	for i := range recs {
		recs[i].Seq = i + 1
		if len(recs)-i > history.DefaultLimit {
			continue
		}
		line, err := recs[i].Encode()
		if err != nil {
			return info, err
		}
		lines.Write(line)
		lines.WriteByte('\n')
		info.Records++
	}
	if err := os.WriteFile(hpath, lines.Bytes(), 0o644); err != nil {
		return info, err
	}
	info.Seconds = time.Since(start).Seconds()
	return info, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stateKiB sums the *.state files of a state directory.
func stateKiB(dir string) (float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.state"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return float64(n) / 1024, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

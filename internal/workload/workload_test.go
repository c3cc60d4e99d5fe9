package workload_test

import (
	"bytes"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

func smallProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: "test", Seed: seed,
		Files: 4, FuncsPerFileMin: 2, FuncsPerFileMax: 5,
		StmtsPerFuncMin: 3, StmtsPerFuncMax: 7,
		GlobalsPerFile: 2, CrossFileCallFrac: 0.5, PrivateFrac: 0.4,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := workload.Generate(smallProfile(42))
	b := workload.Generate(smallProfile(42))
	if len(a) != len(b) {
		t.Fatalf("unit counts differ: %d vs %d", len(a), len(b))
	}
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("unit %s differs between identically seeded generations", name)
		}
	}
	c := workload.Generate(smallProfile(43))
	same := true
	for name := range a {
		if !bytes.Equal(a[name], c[name]) {
			same = false
		}
	}
	if same && len(a) == len(c) {
		t.Error("different seeds produced identical projects")
	}
}

// buildAndRun compiles a snapshot and executes it.
func buildAndRun(t *testing.T, snap project.Snapshot, mode compiler.Mode) (string, int64) {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := vm.RunCapture(rep.Program, vm.Config{})
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	return out, res.ExitValue
}

func TestGeneratedProjectsCompileAndRun(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 99} {
		snap := workload.Generate(smallProfile(seed))
		out, _ := buildAndRun(t, snap, compiler.ModeStateless)
		if out == "" {
			t.Errorf("seed %d: program produced no output", seed)
		}
	}
}

// TestGeneratedDifferential is the fuzz-grade semantic check: generated
// projects must behave identically under no optimization, the standard
// pipeline, and the stateful compiler.
func TestGeneratedDifferential(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		snap := workload.Generate(smallProfile(seed))
		// Unoptimized reference via testutil (no pipeline at all).
		units := map[string]string{}
		for name, src := range snap {
			units[name] = string(src)
		}
		refOut, refExit, err := testutil.Run(units, nil)
		if err != nil {
			t.Fatalf("seed %d unoptimized: %v", seed, err)
		}
		for _, mode := range oracletest.Arms {
			out, exit := buildAndRun(t, snap, mode)
			if out != refOut || exit != refExit {
				t.Errorf("seed %d mode %v: behaviour differs\nref:  %q/%d\ngot:  %q/%d",
					seed, mode, refOut, refExit, out, exit)
			}
		}
	}
}

func TestEditorDeterministic(t *testing.T) {
	snap := workload.Generate(smallProfile(5))
	h1 := workload.GenerateHistory(snap, 77, 5, workload.DefaultCommitOptions())
	h2 := workload.GenerateHistory(snap, 77, 5, workload.DefaultCommitOptions())
	for i := range h1.Commits {
		for name := range h1.Commits[i] {
			if !bytes.Equal(h1.Commits[i][name], h2.Commits[i][name]) {
				t.Fatalf("commit %d unit %s differs between identical histories", i, name)
			}
		}
	}
}

func TestEditsProduceValidPrograms(t *testing.T) {
	snap := workload.Generate(smallProfile(8))
	h := workload.GenerateHistory(snap, 123, 8, workload.DefaultCommitOptions())
	for i, commit := range h.Commits {
		if len(h.Edits[i]) == 0 {
			continue
		}
		out, _ := buildAndRun(t, commit, compiler.ModeStateless)
		if out == "" {
			t.Errorf("commit %d produced no output", i)
		}
	}
}

func TestEditsChangeSource(t *testing.T) {
	snap := workload.Generate(smallProfile(9))
	h := workload.GenerateHistory(snap, 55, 6, workload.DefaultCommitOptions())
	changedCommits := 0
	cur := snap
	for i, commit := range h.Commits {
		if len(project.Diff(cur, commit)) > 0 {
			changedCommits++
		} else if len(h.Edits[i]) > 0 {
			t.Errorf("commit %d reported edits but no diff", i)
		}
		cur = commit
	}
	if changedCommits == 0 {
		t.Error("no commit changed any source")
	}
}

// TestEditedSequenceDifferential runs a commit history under an
// IR-verifying builder of every arm, comparing each linked program and its
// behaviour with a fresh stateless build's after each commit — the
// incremental-correctness property end to end. (No edit of the seed-321
// history reaches the program; seed 708's third does.)
func TestEditedSequenceDifferential(t *testing.T) {
	stream := oracletest.Stream(smallProfile(14), workload.StreamDefault, 708, 6)
	ref := oracletest.Reference(t, nil, stream...)
	var cands []oracletest.Candidate
	for _, mode := range oracletest.Arms {
		cands = append(cands, residentMode(t, mode.String(), buildsys.Options{Mode: mode, VerifyIR: true}, oracletest.Runs(t, ref)))
	}
	oracletest.Walk(t, stream, ref, cands...)
}

// residentMode is the candidate that builds every commit on one builder
// made with opts.
func residentMode(t *testing.T, name string, opts buildsys.Options, check func(int, *buildsys.Report)) oracletest.Candidate {
	t.Helper()
	b, err := buildsys.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	return oracletest.Candidate{Name: name, Build: oracletest.Resident(b), Check: check}
}

// TestIncrementalBuildCachesUnits: unchanged units must come from the
// object cache on rebuilds.
func TestIncrementalBuildCachesUnits(t *testing.T) {
	snap := workload.Generate(smallProfile(21))
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.UnitsCached != 0 || rep1.UnitsCompiled != len(snap) {
		t.Errorf("cold build: compiled=%d cached=%d", rep1.UnitsCompiled, rep1.UnitsCached)
	}
	rep2, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.UnitsCompiled != 0 || rep2.UnitsCached != len(snap) {
		t.Errorf("identical rebuild: compiled=%d cached=%d", rep2.UnitsCompiled, rep2.UnitsCached)
	}
	// One-commit rebuild recompiles only touched units.
	h := workload.GenerateHistory(snap, 9, 1, workload.DefaultCommitOptions())
	changed := project.Diff(snap, h.Commits[0])
	rep3, err := b.Build(h.Commits[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep3.UnitsCompiled != len(changed) {
		t.Errorf("incremental build compiled %d units, want %d (%v)", rep3.UnitsCompiled, len(changed), changed)
	}
	if st := rep3.Stats(); st != nil {
		if _, _, skipped := st.Totals(); skipped == 0 {
			t.Error("stateful incremental build skipped no passes")
		}
	}
}

// TestLongHistoryProgramsExecute is the regression test for the bounds
// trap the evaluation harness once hit: edited programs from a large
// project history must not just compile but also *run* cleanly, because
// edits must never break the generator's index-safety idioms.
func TestLongHistoryProgramsExecute(t *testing.T) {
	profiles := []workload.Profile{workload.StandardSuite()[5]} // "database", the original trap
	commits := 12
	if testing.Short() {
		profiles = []workload.Profile{smallProfile(5)}
		commits = 6
	}
	for _, p := range profiles {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless})
		if err != nil {
			t.Fatal(err)
		}
		for i, snap := range oracletest.Stream(p, workload.StreamDefault, p.Seed^1, commits) {
			rep, err := b.Build(snap)
			if err != nil {
				t.Fatalf("%s commit %d: %v", p.Name, i, err)
			}
			if _, _, err := vm.RunCapture(rep.Program, vm.Config{}); err != nil {
				t.Fatalf("%s commit %d: program trapped: %v", p.Name, i, err)
			}
		}
	}
}

func TestStandardSuiteProfiles(t *testing.T) {
	suite := workload.StandardSuite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d profiles, want 8", len(suite))
	}
	names := map[string]bool{}
	for _, p := range suite {
		if names[p.Name] {
			t.Errorf("duplicate profile name %s", p.Name)
		}
		names[p.Name] = true
		if p.Files < 1 || p.FuncsPerFileMax < p.FuncsPerFileMin {
			t.Errorf("profile %s malformed: %+v", p.Name, p)
		}
	}
	// The smallest suite member must generate and build.
	snap := workload.Generate(suite[0])
	if out, _ := buildAndRun(t, snap, compiler.ModeStateless); out == "" {
		t.Error("tinyutil produced no output")
	}
	if snap.Lines() < 50 {
		t.Errorf("tinyutil implausibly small: %d lines", snap.Lines())
	}
}

func TestProjectSnapshotHelpers(t *testing.T) {
	snap := workload.Generate(smallProfile(30))
	clone := snap.Clone()
	for name := range snap {
		clone[name][0] ^= 0xFF
		if bytes.Equal(snap[name], clone[name]) {
			t.Error("Clone shares backing arrays")
		}
		break
	}
	if snap.TotalBytes() <= 0 || snap.Lines() <= 0 {
		t.Error("size helpers broken")
	}
	dir := t.TempDir()
	if err := project.WriteDir(dir, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := project.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(snap) {
		t.Fatalf("roundtrip lost units: %d vs %d", len(loaded), len(snap))
	}
	for name := range snap {
		if !bytes.Equal(loaded[name], snap[name]) {
			t.Errorf("unit %s changed across disk roundtrip", name)
		}
	}
	// WriteDir removes stale units.
	smaller := snap.Clone()
	for name := range smaller {
		delete(smaller, name)
		break
	}
	if err := project.WriteDir(dir, smaller); err != nil {
		t.Fatal(err)
	}
	reloaded, err := project.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reloaded) != len(smaller) {
		t.Errorf("stale unit not removed: %d vs %d", len(reloaded), len(smaller))
	}
}

// TestGeneratedPipelineDeterminism: the optimizer must be deterministic on
// generated code too, not just the hand corpus.
func TestGeneratedPipelineDeterminism(t *testing.T) {
	snap := workload.Generate(smallProfile(61))
	for name, src := range snap {
		render := func() string {
			m, err := testutil.BuildModule(name, string(src))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
				t.Fatal(err)
			}
			return m.String()
		}
		if render() != render() {
			t.Errorf("unit %s optimizes nondeterministically", name)
		}
	}
}

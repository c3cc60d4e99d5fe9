package buildsys_test

// Robustness of the builder's edges: the persistent-state path must never
// turn disk problems into build failures, worker counts normalize, and
// degenerate snapshots (empty, shrinking) are handled.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	histpkg "statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/vm"
)

// twoUnitSnap is a minimal cross-unit project.
func twoUnitSnap() project.Snapshot {
	return project.Snapshot{
		"lib.mc": []byte(`
func helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i; }
    return s;
}
`),
		"main.mc": []byte(`
extern func helper(n int) int;
func main() int { print("sum", helper(5)); return helper(5); }
`),
	}
}

func mustBuild(t *testing.T, b *buildsys.Builder, snap project.Snapshot) *buildsys.Report {
	t.Helper()
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStatePersistenceAcrossBuilders: dormancy state written by one
// builder warms a fresh builder in a new "process".
func TestStatePersistenceAcrossBuilders(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()

	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b1, snap)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stateFiles []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".state") {
			stateFiles = append(stateFiles, e.Name())
		}
	}
	if len(stateFiles) != len(snap) {
		t.Fatalf("state files = %d, want %d (%v)", len(stateFiles), len(snap), stateFiles)
	}

	// A fresh builder has an empty object cache, so it recompiles — but
	// the disk state must make those recompiles skip dormant passes.
	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustBuild(t, b2, snap)
	if rep.UnitsCompiled != len(snap) {
		t.Fatalf("fresh builder compiled %d units, want %d", rep.UnitsCompiled, len(snap))
	}
	if _, _, skipped := rep.Stats().Totals(); skipped == 0 {
		t.Error("persisted state produced no skips in a fresh builder")
	}
	if rep.StateBytes <= 0 {
		t.Error("stateful build reports no state bytes")
	}
}

// TestCorruptStateIsColdStart: truncated or garbage state files, and a
// well-formed file of an older layout, must yield a correct cold rebuild,
// never an error — and the rebuild must leave state the next process loads.
func TestCorruptStateIsColdStart(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	snap["extra.mc"] = []byte("func extra(n int) int { return n + 1; }\n")
	oldLayout, err := os.ReadFile(filepath.Join("..", "state", "testdata", "unitstate_v5.golden"))
	if err != nil {
		t.Fatal(err)
	}

	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustBuild(t, b1, snap)
	refOut, refRes, err := vm.RunCapture(ref.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Make every state file wrong a different way: truncate one, fill the
	// next with garbage, replace the third with the frozen v5 bytes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var oldLayoutPath string
	i := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".state") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		content := []byte("not a state file at all")
		switch i {
		case 0:
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			content = data[:len(data)/3]
		case 2:
			content, oldLayoutPath = oldLayout, path
		}
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if i != len(snap) {
		t.Fatalf("%d state files written, want %d", i, len(snap))
	}

	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b2.Build(snap)
	if err != nil {
		t.Fatalf("corrupt state must cold-start, got error: %v", err)
	}
	out, res, err := vm.RunCapture(rep.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out != refOut || res.ExitValue != refRes.ExitValue {
		t.Errorf("cold rebuild behaviour differs: %q/%d vs %q/%d", out, res.ExitValue, refOut, refRes.ExitValue)
	}
	if codegen.DisassembleProgram(rep.Program) != codegen.DisassembleProgram(ref.Program) {
		t.Error("cold rebuild program differs from the reference")
	}
	if got := rep.Metrics[obs.CtrStateIOErrors]; got < int64(i) {
		t.Errorf("%s = %d, want one per unloadable file (≥%d)", obs.CtrStateIOErrors, got, i)
	}
	var warned bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, filepath.Base(oldLayoutPath)) && strings.Contains(w, "unsupported version") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("no warning names %s as an unsupported version: %v", filepath.Base(oldLayoutPath), rep.Warnings)
	}

	// The rejected file was overwritten in the current layout, and a fresh
	// builder loads it and skips on it.
	raw, err := os.ReadFile(oldLayoutPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := state.DecodeBytes(raw); err != nil {
		t.Errorf("older-layout file was not rewritten as v%d: %v", state.FormatVersion, err)
	}
	b3, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep3 := mustBuild(t, b3, snap)
	if got := rep3.Metrics[obs.CtrStateLoads]; got != int64(i) {
		t.Errorf("%s = %d after recovery, want %d", obs.CtrStateLoads, got, i)
	}
	if _, _, skipped := rep3.Stats().Totals(); skipped == 0 {
		t.Error("recovered state produced no skips in a fresh builder")
	}
}

// TestCrashMidStateWrite simulates a process killed partway through
// persisting dormancy state: an orphaned temp file of an older builder's
// save sits next to a truncated state file. The next builder must
// cold-start cleanly, produce the same program, and sweep the orphan so
// temp files cannot accumulate across crashes.
func TestCrashMidStateWrite(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()

	b1, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := mustBuild(t, b1, snap)
	refOut, refRes, err := vm.RunCapture(ref.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Crash leftovers: a half-written temp of an older builder's state save
	// (".state-*", as os.CreateTemp named it) plus one real state file cut
	// short.
	orphan := filepath.Join(dir, ".state-3141592653")
	if err := os.WriteFile(orphan, []byte("partial write, process died here"), 0o600); err != nil {
		t.Fatal(err)
	}
	// And of the flight recorder: a repair's temp file, which is swept too,
	// beside a rotated-out segment, which is nobody's leftover.
	histOrphan := filepath.Join(dir, ".history-2718281828")
	olderSegment := histpkg.OlderPath(histpkg.Path(dir))
	for _, path := range []string{histOrphan, olderSegment} {
		if err := os.WriteFile(path, []byte("{\"seq\":1,\"units\":{}}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".state") {
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			truncated = true
			break
		}
	}
	if !truncated {
		t.Fatal("no state file to truncate")
	}

	// "Restart": a fresh builder over the damaged directory.
	b2, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("builder creation must survive crash leftovers: %v", err)
	}
	rep, err := b2.Build(snap)
	if err != nil {
		t.Fatalf("crash leftovers must cold-start, got error: %v", err)
	}
	out, res, err := vm.RunCapture(rep.Program, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out != refOut || res.ExitValue != refRes.ExitValue {
		t.Errorf("post-crash rebuild behaviour differs: %q/%d vs %q/%d",
			out, res.ExitValue, refOut, refRes.ExitValue)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file not swept at builder start (stat err: %v)", err)
	}
	if _, err := os.Stat(histOrphan); !os.IsNotExist(err) {
		t.Errorf("orphaned history temp file not swept at builder start (stat err: %v)", err)
	}
	if data, err := os.ReadFile(olderSegment); err != nil || string(data) != "{\"seq\":1,\"units\":{}}\n" {
		t.Errorf("the older history segment did not survive a builder's start and build: %q, err %v", data, err)
	}

	// The rebuild rewrote good state; one more fresh builder must skip again.
	b3, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep3 := mustBuild(t, b3, snap)
	if _, _, skipped := rep3.Stats().Totals(); skipped == 0 {
		t.Error("state not re-persisted after crash recovery")
	}
}

// TestWorkersNormalized: zero and negative worker counts fall back to a
// sane positive default.
func TestWorkersNormalized(t *testing.T) {
	for _, w := range []int{0, -1, -8} {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if b.Workers() < 1 {
			t.Errorf("workers=%d normalized to %d", w, b.Workers())
		}
		if _, err := b.Build(twoUnitSnap()); err != nil {
			t.Errorf("workers=%d: build failed: %v", w, err)
		}
	}
}

// TestEmptySnapshot: building nothing is a clean error and leaves the
// builder usable.
func TestEmptySnapshot(t *testing.T) {
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(project.Snapshot{}); err == nil {
		t.Error("empty snapshot built without error")
	}
	if _, err := b.Build(twoUnitSnap()); err != nil {
		t.Errorf("builder unusable after empty snapshot: %v", err)
	}
}

// TestRemovedUnitRebuild: shrinking the project drops the removed unit
// from the cache, its state file from disk, and the link.
func TestRemovedUnitRebuild(t *testing.T) {
	dir := t.TempDir()
	full := twoUnitSnap()
	full["extra.mc"] = []byte(`func unused_extra(x int) int { return x * 2; }`)

	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b, full)

	count := func() int {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".state") {
				n++
			}
		}
		return n
	}
	if got := count(); got != 3 {
		t.Fatalf("state files after full build = %d, want 3", got)
	}

	shrunk := twoUnitSnap()
	rep := mustBuild(t, b, shrunk)
	if rep.UnitsCompiled != 0 || rep.UnitsCached != 2 {
		t.Errorf("shrunk rebuild: compiled=%d cached=%d, want 0/2", rep.UnitsCompiled, rep.UnitsCached)
	}
	if _, ok := rep.Units["extra.mc"]; ok {
		t.Error("removed unit still reported")
	}
	if got := count(); got != 2 {
		t.Errorf("state files after removal = %d, want 2", got)
	}
	if _, _, err := vm.RunCapture(rep.Program, vm.Config{}); err != nil {
		t.Errorf("shrunk program failed: %v", err)
	}

	// Growing back recompiles only the returning unit.
	rep = mustBuild(t, b, full)
	if rep.UnitsCompiled != 1 || rep.UnitsCached != 2 {
		t.Errorf("regrown rebuild: compiled=%d cached=%d, want 1/2", rep.UnitsCompiled, rep.UnitsCached)
	}
}

// TestBuilderErrorRecovery: a snapshot with a broken unit fails the build
// deterministically but the builder keeps working afterwards.
func TestBuilderErrorRecovery(t *testing.T) {
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	good := twoUnitSnap()
	mustBuild(t, b, good)

	broken := good.Clone()
	broken["main.mc"] = []byte(`func main() int { return undefined_thing(); }`)
	if _, err := b.Build(broken); err == nil {
		t.Fatal("broken snapshot built without error")
	} else if !strings.Contains(err.Error(), "main.mc") {
		t.Errorf("error does not name the failing unit: %v", err)
	}

	rep := mustBuild(t, b, good)
	if _, _, err := vm.RunCapture(rep.Program, vm.Config{}); err != nil {
		t.Errorf("recovered build failed to run: %v", err)
	}
}

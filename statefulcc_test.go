package statefulcc_test

// Public-API tests: everything a downstream user does through the root
// package must work without touching internal/ directly.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc"
	"statefulcc/internal/core"
)

func TestCompileAndLinkAndRun(t *testing.T) {
	prog, err := statefulcc.CompileAndLink(map[string][]byte{
		"main.mc": []byte(`func main() int { print("hi", 1 + 2); return 7; }`),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, exit, err := statefulcc.RunProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if out != "hi 3\n" || exit != 7 {
		t.Errorf("out=%q exit=%d", out, exit)
	}
}

func TestPublicBuilderFlow(t *testing.T) {
	const helper = `
func helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i; }
    return s;
}
`
	snap := statefulcc.Snapshot{
		"main.mc": []byte(helper + `func main() int { return helper(3) - 2; }`),
	}
	opts := statefulcc.BuildOptions{Mode: statefulcc.Stateful, StateDir: t.TempDir()}
	b, err := statefulcc.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r1.UnitsCompiled != 1 {
		t.Errorf("compiled = %d", r1.UnitsCompiled)
	}
	// Edit main only. A new builder over the state directory is a fresh
	// process: it loads helper's records and its memo file, and replays
	// helper.
	edited := snap.Clone()
	edited["main.mc"] = []byte(helper + `func main() int { return helper(3) - 1; }`)
	fresh, err := statefulcc.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fresh.Build(edited)
	if err != nil {
		t.Fatal(err)
	}
	if replayedBy(r2) == 0 {
		t.Error("a fresh process replayed nothing through the public API")
	}
	_, exit, err := statefulcc.RunProgram(r2.Program)
	if err != nil || exit != 2 {
		t.Errorf("exit=%d err=%v", exit, err)
	}
	// Without the memo files a fresh process has the records alone: the
	// rebuild of what it recorded skips its dormant passes.
	memos, err := filepath.Glob(filepath.Join(opts.StateDir, "*.memo"))
	if err != nil || len(memos) == 0 {
		t.Fatalf("no memo file in the state directory (%v)", err)
	}
	for _, path := range memos {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	records, err := statefulcc.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := records.Build(edited)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, skipped := r4.Stats().Totals(); skipped == 0 {
		t.Error("no skips through the public API")
	}

	// The resident builder also kept helper's segment outputs: it replays
	// them, and links the same program.
	r3, err := b.Build(edited)
	if err != nil {
		t.Fatal(err)
	}
	if replayedBy(r3) == 0 {
		t.Error("no replays through the public API")
	}
	if _, exit, err := statefulcc.RunProgram(r3.Program); err != nil || exit != 2 {
		t.Errorf("resident rebuild: exit=%d err=%v", exit, err)
	}
}

// replayedBy sums the executions a build's replays avoided.
func replayedBy(rep *statefulcc.BuildReport) int {
	n := 0
	for _, sl := range rep.Stats().Slots {
		n += sl.Replayed
	}
	return n
}

func TestPublicWorkloadRoundTrip(t *testing.T) {
	suite := statefulcc.StandardSuite()
	if len(suite) != 8 {
		t.Fatalf("suite size %d", len(suite))
	}
	snap := statefulcc.GenerateProject(suite[0])
	commits := statefulcc.SimulateCommits(snap, 5, 3)
	if len(commits) != 3 {
		t.Fatalf("commits = %d", len(commits))
	}
	dir := t.TempDir()
	if err := statefulcc.WriteProject(dir, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := statefulcc.LoadProject(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(snap) {
		t.Errorf("project roundtrip lost units")
	}
}

func TestPublicPipelines(t *testing.T) {
	std := statefulcc.StandardPipeline()
	quick := statefulcc.QuickPipeline()
	if len(std) <= len(quick) {
		t.Error("standard pipeline should be longer than quick")
	}
	// The returned slices are copies: mutating them must not corrupt the
	// library's configuration.
	std[0] = "corrupted"
	if statefulcc.StandardPipeline()[0] == "corrupted" {
		t.Error("StandardPipeline returns shared state")
	}
}

func TestPublicModeNames(t *testing.T) {
	names := map[statefulcc.Mode]string{
		statefulcc.Stateless: "stateless",
		core.Records:         "records",
		core.Replay:          "replay",
		statefulcc.Stateful:  "stateful",
	}
	for mode, want := range names {
		if got := mode.String(); got != want {
			t.Errorf("%v prints %q", mode, got)
		}
	}
}

func TestPublicCompilerErrors(t *testing.T) {
	_, err := statefulcc.CompileAndLink(map[string][]byte{
		"main.mc": []byte(`func main() { undefined_thing(); }`),
	})
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("err = %v", err)
	}
}

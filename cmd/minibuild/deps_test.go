package main

// Tests for the deps subcommand: footprint listing from a real state
// directory, and both -check detectors — the offline paradox (a recorded
// footprint disagreeing with an unchanged declared hash) and the flight
// recorder (a live build that already logged footprint_missed) — each
// producing the errRegression exit-2 contract CI branches on.

import (
	"os"
	"path/filepath"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/footprint"
	"statefulcc/internal/history"
	"statefulcc/internal/state"
	"statefulcc/internal/vfs"
)

// depsProject writes a two-unit project to disk and footprint-builds it
// into <dir>/.minibuild, returning the project dir.
func depsProject(t *testing.T, hook func(string, []byte, uint64) uint64) string {
	t.Helper()
	dir := t.TempDir()
	units := map[string]string{
		"lib.mc": `
func helper(n int) int { return n * 3; }
`,
		"main.mc": `
extern func helper(n int) int;
func main() int { print("v", helper(7)); return 0; }
`,
	}
	for name, src := range units {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: filepath.Join(dir, ".minibuild"),
		Footprint: true, ContentHashHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string][]byte{}
	for name, src := range units {
		snap[name] = []byte(src)
	}
	if _, err := b.Build(snap); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDepsListsAndChecksCleanly(t *testing.T) {
	dir := depsProject(t, nil)
	if err := runDeps([]string{"-dir", dir}); err != nil {
		t.Fatalf("deps listing: %v", err)
	}
	if err := runDeps([]string{"-dir", dir, "lib.mc"}); err != nil {
		t.Fatalf("deps single unit: %v", err)
	}
	if err := runDeps([]string{"-dir", dir, "-check"}); err != nil {
		t.Fatalf("deps -check on an honest build: %v", err)
	}
	if err := runDeps([]string{"-dir", dir, "no-such.mc"}); err == nil {
		t.Fatal("unknown unit accepted")
	}
}

func TestDepsCheckFlagsOfflineParadox(t *testing.T) {
	dir := depsProject(t, nil)
	stateDir := filepath.Join(dir, ".minibuild")

	// Corrupt one recorded footprint's ground truth while leaving the
	// declared hash matching the tree: the offline paradox.
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".state" {
			continue
		}
		path := filepath.Join(stateDir, e.Name())
		st, err := state.Load(path)
		if err != nil || st == nil || st.Footprint == nil {
			continue
		}
		for i := range st.Footprint.Entries {
			if st.Footprint.Entries[i].Kind == footprint.KindSource {
				st.Footprint.Entries[i].Hash ^= 0xBAD
				tampered = true
			}
		}
		if err := state.SaveFS(vfs.OS, path, st); err != nil {
			t.Fatal(err)
		}
		break
	}
	if !tampered {
		t.Fatal("no footprint-bearing state file found to tamper with")
	}

	err = runDeps([]string{"-dir", dir, "-check"})
	if err == nil {
		t.Fatal("deps -check passed despite the offline paradox")
	}
	re, ok := err.(errRegression)
	if !ok {
		t.Fatalf("want errRegression (exit 2), got %T: %v", err, err)
	}
	if !contains(re.report, "MISSED INVALIDATION") {
		t.Fatalf("report does not name the violation:\n%s", re.report)
	}
	// Without -check the same state is a listing, not a failure.
	if err := runDeps([]string{"-dir", dir}); err != nil {
		t.Fatalf("plain listing should not fail: %v", err)
	}
}

func TestDepsCheckFlagsRecordedMiss(t *testing.T) {
	// A lying builder records footprint_missed in history; deps -check must
	// flag it even though the offline view looks consistent.
	frozen := map[string]uint64{}
	hook := func(unit string, _ []byte, honest uint64) uint64 {
		if h, ok := frozen[unit]; ok {
			return h
		}
		frozen[unit] = honest
		return honest
	}
	dir := depsProject(t, hook)

	// Edit lib.mc on disk and rebuild with the frozen hash: the build
	// serves stale and logs the miss to history.
	libPath := filepath.Join(dir, "lib.mc")
	edited := []byte(`
func helper(n int) int { return n * 5 + 1; }
`)
	if err := os.WriteFile(libPath, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: filepath.Join(dir, ".minibuild"),
		Footprint: true, ContentHashHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	mainSrc, err := os.ReadFile(filepath.Join(dir, "main.mc"))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the builder with the original tree first so the rebuild has a
	// cache to serve stale from.
	orig := map[string][]byte{"lib.mc": []byte("\nfunc helper(n int) int { return n * 3; }\n"), "main.mc": mainSrc}
	if _, err := b.Build(orig); err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(map[string][]byte{"lib.mc": edited, "main.mc": mainSrc})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FootprintMissed) == 0 {
		t.Fatal("setup: the lying rebuild did not record a miss")
	}

	err = runDeps([]string{"-dir", dir, "-check"})
	if err == nil {
		t.Fatal("deps -check passed despite a recorded missed invalidation")
	}
	if _, ok := err.(errRegression); !ok {
		t.Fatalf("want errRegression (exit 2), got %T: %v", err, err)
	}

	// The same when that record is the last of a segment that has just been
	// rotated out (the build after it crashed before its first write): the
	// newest record is the older segment's, and the scan of the state
	// directory takes history.1.jsonl for no state file.
	hpath := history.Path(filepath.Join(dir, ".minibuild"))
	if err := os.Rename(hpath, history.OlderPath(hpath)); err != nil {
		t.Fatal(err)
	}
	if _, ok := runDeps([]string{"-dir", dir, "-check"}).(errRegression); !ok {
		t.Fatal("deps -check no longer finds the recorded miss once its segment is the older one")
	}
	if err := runDeps([]string{"-dir", dir}); err != nil {
		t.Fatalf("deps listing beside history.1.jsonl: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

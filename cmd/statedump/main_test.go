package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/state"
)

// dump runs the command with stdout pointed at a file and returns what it
// printed and the error main would exit with.
func dump(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestDumpIsDeterministic: -v prints functions in name order, so two runs
// over one file are byte-identical however the decoded map iterates.
func TestDumpIsDeterministic(t *testing.T) {
	st := &core.UnitState{Unit: "u.mc", PipelineHash: 7, Funcs: map[string]*core.FuncState{}}
	var want []string
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("f%02d", i)
		want = append(want, "func "+name+":")
		st.Funcs[name] = &core.FuncState{
			Slots: []core.Record{{InputHash: uint64(i)}, {Changed: true}},
			Seen:  []bool{true, true},
		}
	}
	path := filepath.Join(t.TempDir(), "u.state")
	if err := state.Save(path, st); err != nil {
		t.Fatal(err)
	}
	first, err := dump(t, "-v", path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := dump(t, "-v", path)
		if err != nil || again != first {
			t.Fatalf("run %d differs from the first (err %v):\n%s\n---\n%s", i+2, err, again, first)
		}
	}
	var got []string
	for _, line := range strings.Split(first, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "func ") {
			got = append(got, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("functions not in name order:\n%s", strings.Join(got, "\n"))
	}
}

// TestDumpRejectsWithoutOutput: a file that cannot be dumped is an error
// and prints nothing — no header, no partial records.
func TestDumpRejectsWithoutOutput(t *testing.T) {
	older, err := os.ReadFile(filepath.Join("..", "..", "internal", "state", "testdata", "unitstate_v5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	olderPath := filepath.Join(t.TempDir(), "older.state")
	if err := os.WriteFile(olderPath, older, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, path, wantErr string }{
		{"missing file", filepath.Join(t.TempDir(), "nope.state"), "no such file"},
		{"older version", olderPath, "unsupported version 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := dump(t, "-v", tc.path)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if out != "" {
				t.Errorf("printed before failing:\n%s", out)
			}
		})
	}
}

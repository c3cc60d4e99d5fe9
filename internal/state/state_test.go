package state_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/passes"
	"statefulcc/internal/state"
	"statefulcc/internal/testutil"
)

// buildState produces a realistic populated state by actually compiling.
func buildState(t *testing.T) *core.UnitState {
	t.Helper()
	d, err := core.NewDriver(core.Options{Policy: core.Stateful})
	if err != nil {
		t.Fatal(err)
	}
	m, err := testutil.BuildModule("unit.mc", `
var g int = 3;
func _helper(x int) int { return x * g; }
func work(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += _helper(i); }
    return s;
}
func main() int { return work(5); }`)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := d.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRoundTrip(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := state.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := state.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unit != st.Unit || got.PipelineHash != st.PipelineHash {
		t.Errorf("header mismatch: %+v vs %+v", got, st)
	}
	checkRecords(t, "module", st.ModuleSlots, st.ModuleSeen, got.ModuleSlots, got.ModuleSeen)
	if len(got.Funcs) != len(st.Funcs) {
		t.Fatalf("func count %d vs %d", len(got.Funcs), len(st.Funcs))
	}
	for name, fs := range st.Funcs {
		gfs := got.Funcs[name]
		if gfs == nil {
			t.Fatalf("missing func %s", name)
		}
		checkRecords(t, name, fs.Slots, fs.Seen, gfs.Slots, gfs.Seen)
	}
}

// checkRecords verifies the semantically meaningful parts of the records
// survive the roundtrip: the format intentionally drops hashes of active
// (changed) records — they can never satisfy a skip.
func checkRecords(t *testing.T, what string, slots []core.Record, seen []bool, gSlots []core.Record, gSeen []bool) {
	t.Helper()
	if len(slots) != len(gSlots) || !reflect.DeepEqual(seen, gSeen) {
		t.Fatalf("%s: slot shape mismatch", what)
	}
	for i := range slots {
		if gSlots[i].Changed != slots[i].Changed {
			t.Errorf("%s slot %d: changed flag lost", what, i)
		}
		if !seen[i] || slots[i].Changed {
			continue
		}
		if gSlots[i].InputHash != slots[i].InputHash {
			t.Errorf("%s slot %d: dormant hash lost", what, i)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	st := buildState(t)
	path := filepath.Join(t.TempDir(), "sub", "unit.state")
	if err := state.Save(path, st); err != nil {
		t.Fatal(err)
	}
	got, err := state.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Unit != st.Unit || got.RecordCount() != st.RecordCount() {
		t.Errorf("load mismatch: %v vs %v", got, st)
	}
}

func TestLoadMissingFile(t *testing.T) {
	got, err := state.Load(filepath.Join(t.TempDir(), "nope.state"))
	if err != nil || got != nil {
		t.Errorf("missing file should be (nil, nil), got (%v, %v)", got, err)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"garbage":   []byte("this is not a state file at all........."),
		"badmagic":  append([]byte("NOTSTATE"), make([]byte, 64)...),
		"truncated": {'S', 'C', 'C', 'S', 8, 0, 0, 0, 1, 0},
	}
	for name, content := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := state.Load(p); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestLoadRejectsVersionSkew: only FormatVersion decodes. A newer version
// field and the frozen files of every older layout — well-formed in their
// day — are all rejected as unsupported, with no state returned.
func TestLoadRejectsVersionSkew(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := state.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	newer := buf.Bytes()
	newer[4] = 99 // bump version field
	inputs := map[string][]byte{"version 99": newer}
	for _, name := range olderLayoutFiles {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatalf("frozen golden file missing: %v", err)
		}
		inputs[name] = data
	}
	for name, data := range inputs {
		got, err := state.DecodeBytes(data)
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("%s: err = %v, want unsupported version", name, err)
		}
		if got != nil {
			t.Errorf("%s: rejected file still returned a state: %+v", name, got)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	st := buildState(t)
	var a, b bytes.Buffer
	if err := state.Encode(&a, st); err != nil {
		t.Fatal(err)
	}
	if err := state.Encode(&b, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encoding is nondeterministic")
	}
}

func TestFileSizeMatchesEncoding(t *testing.T) {
	st := buildState(t)
	n, err := state.FileSize(st)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := state.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Errorf("FileSize %d != encoded length %d", n, buf.Len())
	}
	// The paper's pitch: state is tiny. ~17 bytes per record plus names;
	// for this 3-function unit it must be well under a few KiB.
	if n > 4096 {
		t.Errorf("state unexpectedly large: %d bytes", n)
	}
}

func TestReloadedStateSkips(t *testing.T) {
	// End-to-end persistence: records written by one driver, reloaded from
	// disk, must produce skips in a fresh process-like context.
	d, err := core.NewDriver(core.Options{Policy: core.Stateful, Pipeline: passes.StandardPipeline})
	if err != nil {
		t.Fatal(err)
	}
	src := `func main() int { var s int = 0; for var i int = 0; i < 3; i++ { s += i; } return s; }`
	m1, err := testutil.BuildModule("u.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := d.Run(m1, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "u.state")
	if err := state.Save(path, st); err != nil {
		t.Fatal(err)
	}
	st2, err := state.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := testutil.BuildModule("u.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := d.Run(m2, st2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, skipped := stats.Totals(); skipped == 0 {
		t.Error("reloaded state produced no skips")
	}
}

package passes_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/slot_digests.json")

const slotDigestFile = "testdata/slot_digests.json"

// objectKey is the pseudo-function under which a unit's compiled object is
// recorded, so a codegen divergence names the unit.
const objectKey = "<object>"

// slotDigests maps unit → function → one space-separated entry per
// StandardPipeline slot. An entry is the first 16 hex digits of the
// SHA-256 of ir.Func.String() after that slot, "=" when the text equals
// the previous slot's, or "-" once the function is gone; a trailing "!"
// records that the pass reported a change (per function for function
// passes, per module for module passes). Dormancy records are built from
// that verdict, so it is part of what a rewritten pass must reproduce.
type slotDigests map[string]map[string]string

func shortSum(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// goldenUnits returns every unit of every StandardSuite profile plus the
// repository's testdata programs, keyed "<profile>/<unit>".
func goldenUnits(t *testing.T) map[string]string {
	t.Helper()
	units := make(map[string]string)
	for _, p := range workload.StandardSuite() {
		for name, src := range workload.Generate(p) {
			units[p.Name+"/"+name] = string(src)
		}
	}
	progs, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(progs) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range progs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		units["testdata/"+filepath.Base(path)] = string(src)
	}
	return units
}

// unitSlotDigests runs the standard pipeline over one unit slot by slot.
func unitSlotDigests(t *testing.T, key, src string) map[string]string {
	t.Helper()
	m, err := testutil.BuildModule(filepath.Base(key), src)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	var names []string
	entries := make(map[string][]string)
	last := make(map[string]string)
	for _, f := range m.Funcs {
		names = append(names, f.Name)
		last[f.Name] = shortSum(f.String())
	}
	for _, slot := range passes.StandardPipeline {
		info, ok := passes.Lookup(slot)
		if !ok {
			t.Fatalf("unknown pass %s", slot)
		}
		verdict := make(map[string]bool)
		if info.Module {
			changed := info.New().(passes.ModulePass).RunModule(m)
			for _, n := range names {
				verdict[n] = changed
			}
		} else {
			p := info.New().(passes.FuncPass)
			for _, f := range m.Funcs {
				verdict[f.Name] = p.Run(f)
			}
		}
		present := make(map[string]*ir.Func, len(m.Funcs))
		for _, f := range m.Funcs {
			present[f.Name] = f
		}
		for _, n := range names {
			e := "-"
			if f := present[n]; f != nil {
				e = shortSum(f.String())
				if e == last[n] {
					e = "="
				} else {
					last[n] = e
				}
			}
			if verdict[n] {
				e += "!"
			}
			entries[n] = append(entries[n], e)
		}
	}
	out := make(map[string]string, len(names)+1)
	for _, n := range names {
		out[n] = strings.Join(entries[n], " ")
	}
	obj, err := codegen.Compile(m)
	if err != nil {
		t.Fatalf("%s: codegen: %v", key, err)
	}
	out[objectKey] = shortSum(codegen.DisassembleObject(obj))
	return out
}

// TestSlotDigests holds every pass to the IR it produced before the
// compile path moved to dense side tables: the digests were recorded at
// the parent of that change, so a divergence names the unit, function and
// pipeline slot instead of surfacing as a whole-program oracle mismatch.
func TestSlotDigests(t *testing.T) {
	units := goldenUnits(t)
	got := make(slotDigests, len(units))
	for key, src := range units {
		got[key] = unitSlotDigests(t, key, src)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(slotDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(slotDigestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want slotDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d units compiled, %d recorded", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failures := 0
	for _, key := range keys {
		for fn, w := range want[key] {
			g := got[key][fn]
			if g == w {
				continue
			}
			if failures++; failures > 20 {
				t.Fatal("too many divergences")
			}
			if fn == objectKey {
				t.Errorf("%s: compiled object diverged: %s, recorded %s", key, g, w)
				continue
			}
			ge, we := strings.Fields(g), strings.Fields(w)
			for i := range we {
				if i >= len(ge) || ge[i] != we[i] {
					t.Errorf("%s: func %s diverged at slot %d (%s): %v, recorded %s",
						key, fn, i, passes.StandardPipeline[i], ge[i:min(i+1, len(ge))], we[i])
					break
				}
			}
		}
	}
}

package fingerprint_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"testing"

	"statefulcc/internal/fingerprint"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/function_fingerprints.json")

const fingerprintGoldenFile = "testdata/function_fingerprints.json"

// profileFingerprints runs StandardPipeline over every unit of p slot by
// slot and returns the SHA-256 of one line per (unit, function, slot):
// fingerprint.Function of each function after a function slot, and one
// fingerprint.Module line after a module slot.
func profileFingerprints(t *testing.T, p workload.Profile) string {
	t.Helper()
	snap := workload.Generate(p)
	sum := sha256.New()
	for _, unit := range snap.Units() {
		m, err := testutil.BuildModule(unit, string(snap[unit]))
		if err != nil {
			t.Fatalf("%s/%s: %v", p.Name, unit, err)
		}
		for slot, name := range passes.StandardPipeline {
			info, ok := passes.Lookup(name)
			if !ok {
				t.Fatalf("unknown pass %s", name)
			}
			if info.Module {
				info.New().(passes.ModulePass).RunModule(m)
				line(sum, unit, "<module>", slot, fingerprint.Module(m))
				continue
			}
			fp := info.New().(passes.FuncPass)
			for _, f := range m.Funcs {
				fp.Run(f)
				line(sum, unit, f.Name, slot, fingerprint.Function(f))
			}
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

func line(w hash.Hash, unit, fn string, slot int, fp uint64) {
	fmt.Fprintf(w, "%s\t%s\t%d\t%016x\n", unit, fn, slot, fp)
}

// TestFunctionFingerprintsGolden holds the fingerprint values themselves to
// recorded ones. Dormancy records in every state directory are keyed by
// these values, so a change here is a core.StateVersion bump, never a bare
// -update.
func TestFunctionFingerprintsGolden(t *testing.T) {
	profiles := append(workload.StandardSuite(), workload.MegaProfile())
	got := make(map[string]string, len(profiles))
	for _, p := range profiles {
		got[p.Name] = profileFingerprints(t, p)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGoldenFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fingerprintGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d profiles hashed, %d recorded", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: fingerprints moved: %s, recorded %s", name, got[name], w)
		}
	}
}

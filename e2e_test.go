package statefulcc_test

// End-to-end tests over the realistic MiniC programs in testdata/: each is
// compiled under every policy and checked against expected behaviour, plus
// a pairwise output-equivalence sweep. These programs are hand-written
// algorithms (sieve, sorting, backtracking, bit tricks) rather than
// generated code, so they cover idioms the workload generator does not.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc"
	"statefulcc/internal/oracletest"
)

// e2eExpectations: program name → (expected output fragmentS, expected exit).
var e2eExpectations = map[string]struct {
	fragments []string
	exit      int64
}{
	"sieve.mc":  {[]string{"prime 2", "prime 11", "count 25"}, 25},
	"sort.mc":   {[]string{"changed 1"}, -1 /* any */},
	"matrix.mc": {[]string{"trace"}, -1},
	"queens.mc": {[]string{"solutions 4"}, 4},
	"bitops.mc": {[]string{"pop 8 0 1", "rev 128 1 85", "par 1 0"}, 6},
	"calc.mc":   {[]string{"result 8"}, 8},
}

func loadTestdata(t *testing.T) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".mc") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = src
	}
	if len(out) < 5 {
		t.Fatalf("testdata too small: %d programs", len(out))
	}
	return out
}

func TestTestdataPrograms(t *testing.T) {
	programs := loadTestdata(t)
	for name, src := range programs {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			want, known := e2eExpectations[name]
			if !known {
				t.Fatalf("no expectation registered for %s — add one", name)
			}
			var ref string
			var refExit int64
			for i, mode := range oracletest.Arms {
				b, err := statefulcc.NewBuilder(statefulcc.BuildOptions{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				// Build twice under stateful modes so records are exercised.
				snap := statefulcc.Snapshot{name: src}
				if _, err := b.Build(snap); err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				rep, err := b.Build(snap)
				if err != nil {
					t.Fatalf("%v rebuild: %v", mode, err)
				}
				out, exit, err := statefulcc.RunProgram(rep.Program)
				if err != nil {
					t.Fatalf("%v run: %v\noutput:\n%s", mode, err, out)
				}
				if i == 0 {
					ref, refExit = out, exit
					for _, frag := range want.fragments {
						if !strings.Contains(out, frag) {
							t.Errorf("output missing %q:\n%s", frag, out)
						}
					}
					if want.exit >= 0 && exit != want.exit {
						t.Errorf("exit = %d, want %d", exit, want.exit)
					}
				} else if out != ref || exit != refExit {
					t.Errorf("%v behaviour differs from stateless:\n%s\nvs\n%s", mode, out, ref)
				}
			}
		})
	}
}

// TestTestdataAsOneProject links all testdata programs into one project
// (renaming mains) to exercise a larger multi-unit link.
func TestTestdataAsOneProject(t *testing.T) {
	programs := loadTestdata(t)
	snap := statefulcc.Snapshot{}
	var calls []string
	for name, src := range programs {
		fn := "run_" + strings.TrimSuffix(name, ".mc")
		text := strings.Replace(string(src), "func main()", "func "+fn+"()", 1)
		snap[name] = []byte(text)
		calls = append(calls, fn)
	}
	var sb strings.Builder
	for _, fn := range calls {
		sb.WriteString("extern func " + fn + "() int;\n")
	}
	sb.WriteString("func main() int {\n    var total int = 0;\n")
	for _, fn := range calls {
		sb.WriteString("    total += " + fn + "();\n")
	}
	sb.WriteString("    print(\"total-mod\", total % 1000);\n    return total % 128;\n}\n")
	snap["driver.mc"] = []byte(sb.String())

	b, err := statefulcc.NewBuilder(statefulcc.BuildOptions{Mode: statefulcc.Stateful, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := statefulcc.RunProgram(rep.Program)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "total-mod") {
		t.Errorf("driver output missing:\n%s", out)
	}
}

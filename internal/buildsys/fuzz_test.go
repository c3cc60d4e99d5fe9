package buildsys_test

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// fuzzBuildProfile is a three-unit project small enough for quick inputs,
// with enough cross-unit calls for the wave edits to reach several units.
var fuzzBuildProfile = workload.Profile{
	Name: "fuzz-build", Seed: 27,
	Files: 3, FuncsPerFileMin: 2, FuncsPerFileMax: 3,
	StmtsPerFuncMin: 2, StmtsPerFuncMax: 4,
	GlobalsPerFile: 1, CrossFileCallFrac: 0.5, PrivateFrac: 0.3,
}

// FuzzBuildEdit fuzzes the skip rule at the build level: one unit of
// fuzzBuildProfile's project (picked by unit) is src0 and then src1, and at
// 1 and 2 workers, with the footprint off and on, both a resident builder
// and a new builder per commit over one state directory must link the
// stateless reference's program at both commits, with the sentinel auditing
// every skip and finding none unsound and the footprint missing no
// invalidation. At audit rate 0, where every reuse is taken, a resident
// builder and a new builder per commit over the memo files the last one
// persisted must link it too. Inputs whose stateless build fails are
// skipped. Under plain
// `go test` only the seeds run; `make chaos` runs a burst beyond them.
func FuzzBuildEdit(f *testing.F) {
	base := workload.Generate(fuzzBuildProfile)
	units := base.Units()
	// Seeds: every unit an edit of each kind the workload makes changes —
	// statement-level commits, rename waves and interface churn.
	for _, kind := range []workload.StreamKind{workload.StreamDefault, workload.StreamRenameWave, workload.StreamInterfaceChurn} {
		stream := oracletest.Stream(fuzzBuildProfile, kind, fuzzBuildProfile.Seed, 2)
		for i := 1; i < len(stream); i++ {
			for u, unit := range units {
				if !bytes.Equal(stream[i-1][unit], stream[i][unit]) {
					f.Add(uint8(u), string(stream[i-1][unit]), string(stream[i][unit]))
				}
			}
		}
	}

	// Seeds for what a linker takes as moved: a function of the edited unit
	// that changes its arity, and a global of it that goes away. Nothing
	// else names either; an edit that broke another unit would not link.
	for u, unit := range units {
		src := string(base[unit])
		f.Add(uint8(u), src+"\nfunc fuzz_moved() int { return 1; }\n", src+"\nfunc fuzz_moved(a int) int { return a; }\n")
		f.Add(uint8(u), src+"\nvar fuzz_gone int = 3;\nfunc fuzz_user() int { return fuzz_gone; }\n", src)
	}

	// Seeds for what decides a frontend reuse: edits of the declarations
	// around functions whose bytes stay the same (testutil.DeclEdits), with
	// an extern of a function another unit defines.
	for u, unit := range units {
		for _, e := range testutil.DeclEdits(string(base[unit]), externFor(base, unit)) {
			f.Add(uint8(u), e[0], e[1])
		}
	}

	// Seeds for what a code reuse rebases: edits before a function whose
	// final IR stays the same (testutil.CodeEdits).
	for u, unit := range units {
		for _, e := range testutil.CodeEdits(string(base[unit])) {
			f.Add(uint8(u), e[0], e[1])
		}
	}

	f.Fuzz(func(t *testing.T, u uint8, src0, src1 string) {
		if len(src0) > 16<<10 || len(src1) > 16<<10 {
			return
		}
		unit := units[int(u)%len(units)]
		stream := []project.Snapshot{base.Clone(), base.Clone()}
		stream[0][unit], stream[1][unit] = []byte(src0), []byte(src1)
		check, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless, Workers: 1, HistoryPath: "-"})
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range stream {
			if _, err := check.Build(snap); err != nil {
				return // the fuzzer is after the skip rule, not build errors
			}
		}
		// One reference per snapshot: an edit that leaves the program as
		// it was is an input like any other here.
		ref := append(oracletest.Reference(t, nil, stream[0]), oracletest.Reference(t, nil, stream[1])...)

		noMiss := func(i int, rep *buildsys.Report) {
			if len(rep.FootprintMissed) != 0 {
				t.Fatalf("commit %d: missed invalidations %v\nsrc0:\n%s\nsrc1:\n%s", i, rep.FootprintMissed, src0, src1)
			}
		}
		for _, workers := range []int{1, 2} {
			for _, traced := range []bool{false, true} {
				opts := buildsys.Options{Mode: compiler.ModeStateful, Workers: workers, AuditRate: 1, Footprint: traced}
				name := fmt.Sprintf("workers=%d footprint=%v", workers, traced)
				opts.StateDir = t.TempDir()
				b, err := buildsys.NewBuilder(opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.StateDir = t.TempDir() // the per-commit builders' own
				perCommit := func(_ int, snap project.Snapshot) (*buildsys.Report, error) {
					b, err := buildsys.NewBuilder(opts)
					if err != nil {
						return nil, err
					}
					return b.Build(snap)
				}
				oracletest.Walk(t, stream, ref,
					oracletest.Candidate{Name: "resident " + name, Build: oracletest.Resident(b), Check: noMiss},
					oracletest.Candidate{Name: "builder per commit " + name, Build: perCommit, Check: noMiss})
			}
		}
		taking := buildsys.Options{Mode: compiler.ModeStateful, Workers: 1, StateDir: t.TempDir()}
		resident, err := buildsys.NewBuilder(taking)
		if err != nil {
			t.Fatal(err)
		}
		taking.StateDir = t.TempDir()
		overMemo := func(_ int, snap project.Snapshot) (*buildsys.Report, error) {
			b, err := buildsys.NewBuilder(taking)
			if err != nil {
				return nil, err
			}
			return b.Build(snap)
		}
		oracletest.Walk(t, stream, ref,
			oracletest.Candidate{Name: "resident, audit rate 0", Build: oracletest.Resident(resident)},
			oracletest.Candidate{Name: "builder per commit over the memo, audit rate 0", Build: overMemo})
	})
}

// publicFunc matches the header of a public function as the generator
// writes it.
var publicFunc = regexp.MustCompile(`(?m)^func ([a-z]\w*)(\([^)]*\)(?: int)?) \{`)

// externFor returns an extern declaration of a function another unit of
// snap defines and unit does not name, so that it resolves at link time.
func externFor(snap project.Snapshot, unit string) string {
	for _, other := range snap.Units() {
		if other == unit {
			continue
		}
		for _, m := range publicFunc.FindAllStringSubmatch(string(snap[other]), -1) {
			if m[1] != "main" && !strings.Contains(string(snap[unit]), m[1]+"(") {
				return "extern func " + m[1] + m[2] + ";"
			}
		}
	}
	return ""
}

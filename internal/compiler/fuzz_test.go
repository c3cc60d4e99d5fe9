package compiler_test

// FuzzStatefulEdit fuzzes the skip rule itself: under each of the four arms
// (oracletest.Arms), at AuditRate 1, a unit is compiled and an edit of it
// is compiled with the state that compile left. The edit must come out
// exactly as a stateless compile of it — with the soundness sentinel
// checking every skip, replay, frontend reuse and code reuse and finding
// none unsound —
// and as the reference that prunes nothing (testutil.CompileUnpruned: every
// compiler goes through the driver, which removes the functions deadfunc
// would delete before the first pass). The replaying arms compile at
// AuditRate 0 as well, where a replay or reuse is taken, not audited. An
// edit that does not compile must fail with a stateless compile's
// diagnostics. Records alone takes its state written and read back, as a
// fresh process loads it; a replaying arm takes the in-memory state, memo
// and all. Each arm's compiler compiles the unit before the edit, so the
// edit is lowered on a used IR arena, as on a build worker. Under plain `go
// test` only the seeds run; `make chaos` runs a burst beyond them.

import (
	"bytes"
	"strings"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/state"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// fuzzEditProfile is a project small enough that its units make quick
// seeds, with enough cross-unit calls for the wave edits to reach several
// units.
var fuzzEditProfile = workload.Profile{
	Name: "fuzz-edit", Seed: 27,
	Files: 3, FuncsPerFileMin: 2, FuncsPerFileMax: 3,
	StmtsPerFuncMin: 2, StmtsPerFuncMax: 4,
	GlobalsPerFile: 1, CrossFileCallFrac: 0.5, PrivateFrac: 0.3,
}

// addEditSeeds adds a (before, after) pair for every unit an edit of each
// kind the workload makes changes: statement-level commits, rename waves
// and interface churn.
func addEditSeeds(f *testing.F) {
	base := workload.Generate(fuzzEditProfile)
	for _, kind := range []workload.StreamKind{workload.StreamDefault, workload.StreamRenameWave, workload.StreamInterfaceChurn} {
		h := workload.GenerateHistoryStream(base, fuzzEditProfile.Seed, 2, workload.DefaultCommitOptions(), kind)
		prev := base
		for _, next := range h.Commits {
			for _, unit := range next.Units() {
				if !bytes.Equal(prev[unit], next[unit]) {
					f.Add(string(prev[unit]), string(next[unit]))
				}
			}
			prev = next
		}
	}
}

func FuzzStatefulEdit(f *testing.F) {
	// The hand edits: a constant in one function, the same source again, and
	// a rewrite that turns passes dormant on the first source active.
	f.Add(libSrc, strings.Replace(libSrc, "x * 3 + 1", "x * 3 + 2", 1))
	f.Add(mainSrc, mainSrc)
	f.Add(`func f(x int) int { return x + 1 + 1; } func main() int { return f(1); }`,
		`func f(x int) int { var s int = 0; for var i int = 0; i < 3; i++ { s += x * 4; } return s; } func main() int { return f(1); }`)
	// A private function loses its only call, so the edit prunes it, and
	// gets the call back, so the edit compiles it against a state that
	// holds no records for it.
	called := `func _h(x int) int { var s int = 0; for var i int = 0; i < x; i++ { s += i * 5; } return s; } func main() int { return _h(4) + 1; }`
	uncalled := strings.Replace(called, "_h(4) + 1", "4 + 1", 1)
	f.Add(called, uncalled)
	f.Add(uncalled, called)
	addEditSeeds(f)
	// The inliner trap: acc is under inline's threshold when it reaches
	// inline and far past it unrolled, so a cache that restored acc's
	// post-pipeline body before inline would keep main's call where a
	// stateless compile folds main to a constant.
	accSrc := `func acc(x int) int { var s int = 0; for var i int = 0; i < 8; i++ { s = s * 3 + x * i - 7; } return s; } func main() int { return acc(3) - 22000; }`
	f.Add(accSrc, strings.Replace(accSrc, "22000", "22081", 1))
	// Edits of the declarations around a function whose bytes stay the
	// same, which decide whether the frontend may reuse it.
	for _, src := range []string{libSrc, mainSrc} {
		for _, e := range testutil.DeclEdits(src, "extern func fz_ext(a int) int;") {
			f.Add(e[0], e[1])
		}
	}
	// Edits before a function whose final IR stays the same, whose code a
	// replaying compile takes from the last object and rebases.
	for _, e := range testutil.CodeEdits(mainSrc) {
		f.Add(e[0], e[1])
	}

	f.Fuzz(func(t *testing.T, src0, src1 string) {
		if len(src0) > 16<<10 || len(src1) > 16<<10 {
			return
		}
		const unit = "fuzz.mc"
		oracle, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
		if err != nil {
			t.Fatal(err)
		}
		var wantIR, wantDis string
		want, wantErr := oracle.CompileUnit(unit, []byte(src1), nil)
		if wantErr == nil {
			wantIR, wantDis = want.Module.String(), codegen.DisassembleObject(want.Object)
		}
		if _, err := oracle.CompileUnit(unit, []byte(src0), nil); err != nil {
			return // the fuzzer is after the skip rule, not frontend errors
		}
		var refIR, refDis string
		if wantErr == nil {
			refMod, refObj, err := testutil.CompileUnpruned(unit, src1, nil)
			if err != nil {
				t.Fatalf("the unpruned reference failed where the driver did not: %v", err)
			}
			refIR, refDis = refMod.String(), codegen.DisassembleObject(refObj)
		}
		// A run is one arm's second compile at an audit rate, on the state
		// the first left in memory or on the one its files hold.
		type run struct {
			rate float64
			disk bool
		}
		for _, mode := range oracletest.Arms {
			// A replaying arm compiles at audit rate 0 too, where a reuse
			// is taken, not only audited; both bits do so from the state
			// and memo files too, as a new process would.
			runs := []run{{1, mode == core.Records}}
			if mode&core.Replay != 0 {
				runs = append(runs, run{0, false})
			}
			if mode == core.Stateful {
				runs = append(runs, run{0, true}, run{1, true})
			}
			for _, r := range runs {
				rate := r.rate
				c, err := compiler.New(compiler.Options{Mode: mode, AuditRate: rate})
				if err != nil {
					t.Fatal(err)
				}
				r0, err := c.CompileUnit(unit, []byte(src0), nil)
				if err != nil {
					t.Fatalf("%v: src0 compiled stateless and failed: %v", mode, err)
				}
				st := r0.State
				if r.disk {
					var buf bytes.Buffer
					if err := state.Encode(&buf, st); err != nil {
						t.Fatal(err)
					}
					if st, err = state.DecodeBytes(buf.Bytes()); err != nil {
						t.Fatalf("the state a compile wrote does not decode: %v", err)
					}
					if mode&core.Replay != 0 {
						if err := state.DecodeMemo(state.MarshalMemo(r0.State), st); err != nil {
							t.Fatalf("the memo a compile wrote does not decode: %v", err)
						}
					}
				}
				got, err := c.CompileUnit(unit, []byte(src1), st)
				if wantErr != nil {
					// Diagnostics are a stateless compile's, text and
					// positions.
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%v at audit rate %v: got error %v\nwant %v\nsrc0:\n%s\nsrc1:\n%s", mode, rate, err, wantErr, src0, src1)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v compile failed where stateless did not: %v", mode, err)
				}
				if _, unsound := got.Stats.SentinelTotals(); unsound != 0 {
					t.Errorf("%v: %d unsound skips, replays or reuses\nsrc0:\n%s\nsrc1:\n%s", mode, unsound, src0, src1)
				}
				gotIR, gotDis := got.Module.String(), codegen.DisassembleObject(got.Object)
				if gotIR != wantIR {
					t.Fatalf("IR differs from stateless\n--- %v at audit rate %v ---\n%s\n--- stateless ---\n%s\nsrc0:\n%s\nsrc1:\n%s", mode, rate, gotIR, wantIR, src0, src1)
				}
				if gotDis != wantDis {
					t.Fatalf("disassembly differs from stateless\n--- %v at audit rate %v ---\n%s\n--- stateless ---\n%s", mode, rate, gotDis, wantDis)
				}
				if gotIR != refIR {
					t.Fatalf("IR differs from the unpruned reference\n--- %v ---\n%s\n--- unpruned ---\n%s\nsrc0:\n%s\nsrc1:\n%s", mode, gotIR, refIR, src0, src1)
				}
				if gotDis != refDis {
					t.Fatalf("disassembly differs from the unpruned reference\n--- %v ---\n%s\n--- unpruned ---\n%s", mode, gotDis, refDis)
				}
			}
		}
	})
}

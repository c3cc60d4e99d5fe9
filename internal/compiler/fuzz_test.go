package compiler_test

// FuzzStatefulEdit fuzzes the skip rule itself: a unit compiled stateful,
// its state written and read back, then an edit of it compiled with that
// state must come out exactly as a stateless compile of the edit — with the
// soundness sentinel checking every skip and finding none unsound — and as
// the reference that prunes nothing (testutil.CompileUnpruned: both
// compilers go through the driver, which removes the functions deadfunc
// would delete before the first pass). The
// audited compiler compiles the unit before the edit first, so the edit is
// lowered on a used IR arena, as on a build worker. A fullcache compiler
// audited at rate 1 compiles the same pair, the edit from the in-memory
// state of its own first compile, and is held to the same references, so
// both reuse policies are fuzzed. Under plain `go test` only the seeds
// run; `make chaos` runs a burst beyond them.

import (
	"bytes"
	"strings"
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
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

	f.Fuzz(func(t *testing.T, src0, src1 string) {
		if len(src0) > 16<<10 || len(src1) > 16<<10 {
			return
		}
		const unit = "fuzz.mc"
		warm, err := compiler.New(compiler.Options{Mode: compiler.ModeStateful})
		if err != nil {
			t.Fatal(err)
		}
		r0, err := warm.CompileUnit(unit, []byte(src0), nil)
		if err != nil {
			return // the fuzzer is after the skip rule, not frontend errors
		}
		var buf bytes.Buffer
		if err := state.Encode(&buf, r0.State); err != nil {
			t.Fatal(err)
		}
		st, err := state.DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("the state a compile wrote does not decode: %v", err)
		}

		oracle, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.CompileUnit(unit, []byte(src1), nil)
		if err != nil {
			return
		}
		audited, err := compiler.New(compiler.Options{Mode: compiler.ModeStateful, AuditRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := audited.CompileUnit(unit, []byte(src0), nil); err != nil {
			t.Fatalf("src0 compiled once and failed on a second compiler: %v", err)
		}
		got, err := audited.CompileUnit(unit, []byte(src1), st)
		if err != nil {
			t.Fatalf("stateful compile failed where stateless did not: %v", err)
		}
		// The full cache's memo is never encoded: its compiler replays from
		// the in-memory state its own src0 compile returned.
		full, err := compiler.New(compiler.Options{Mode: compiler.ModeFullCache, AuditRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		f0, err := full.CompileUnit(unit, []byte(src0), nil)
		if err != nil {
			t.Fatalf("src0 compiled stateful and failed under fullcache: %v", err)
		}
		gotFull, err := full.CompileUnit(unit, []byte(src1), f0.State)
		if err != nil {
			t.Fatalf("fullcache compile failed where stateless did not: %v", err)
		}
		refMod, refObj, err := testutil.CompileUnpruned(unit, src1, nil)
		if err != nil {
			t.Fatalf("the unpruned reference failed where the driver did not: %v", err)
		}
		for _, r := range []struct {
			mode string
			res  *compiler.UnitResult
		}{{"stateful", got}, {"fullcache", gotFull}} {
			if _, unsound := r.res.Stats.SentinelTotals(); unsound != 0 {
				t.Errorf("%s: %d unsound skips or replays\nsrc0:\n%s\nsrc1:\n%s", r.mode, unsound, src0, src1)
			}
			if g, w := r.res.Module.String(), want.Module.String(); g != w {
				t.Fatalf("IR differs from stateless\n--- %s ---\n%s\n--- stateless ---\n%s\nsrc0:\n%s\nsrc1:\n%s", r.mode, g, w, src0, src1)
			}
			if g, w := codegen.DisassembleObject(r.res.Object), codegen.DisassembleObject(want.Object); g != w {
				t.Fatalf("disassembly differs from stateless\n--- %s ---\n%s\n--- stateless ---\n%s", r.mode, g, w)
			}
			if g, w := r.res.Module.String(), refMod.String(); g != w {
				t.Fatalf("IR differs from the unpruned reference\n--- %s ---\n%s\n--- unpruned ---\n%s\nsrc0:\n%s\nsrc1:\n%s", r.mode, g, w, src0, src1)
			}
			if g, w := codegen.DisassembleObject(r.res.Object), codegen.DisassembleObject(refObj); g != w {
				t.Fatalf("disassembly differs from the unpruned reference\n--- %s ---\n%s\n--- unpruned ---\n%s", r.mode, g, w)
			}
		}
	})
}

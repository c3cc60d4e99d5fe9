package compiler_test

import (
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/testutil"
)

// TestCodegenReuseMatchesFresh compiles each edit of testutil.CodeEdits on
// the state its first source left, on a resident stateful compiler: the
// object must disassemble as a stateless compile of the edit does, with the
// code of fz_kept, whose final IR the edits leave alone, taken from the
// last object — its strings, relocations and function index rebased. At
// audit rate 1 every code reuse is generated anew and checked, and none is
// unsound.
func TestCodegenReuseMatchesFresh(t *testing.T) {
	const unit = "reuse.mc"
	oracle, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range testutil.CodeEdits(libSrc) {
		want, err := oracle.CompileUnit(unit, []byte(e[1]), nil)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		wantDis := codegen.DisassembleObject(want.Object)
		for _, rate := range []float64{0, 1} {
			reg := obs.NewRegistry()
			c, err := compiler.New(compiler.Options{Mode: compiler.ModeStateful, AuditRate: rate, Obs: &obs.Sink{Pass: reg.Pass()}})
			if err != nil {
				t.Fatal(err)
			}
			r0, err := c.CompileUnit(unit, []byte(e[0]), nil)
			if err != nil {
				t.Fatalf("edit %d: %v", i, err)
			}
			before := reg.Snapshot()
			got, err := c.CompileUnit(unit, []byte(e[1]), r0.State)
			if err != nil {
				t.Fatalf("edit %d: %v", i, err)
			}
			after := reg.Snapshot()
			if dis := codegen.DisassembleObject(got.Object); dis != wantDis {
				t.Fatalf("edit %d at audit rate %v: disassembly differs from stateless\n--- resident ---\n%s\n--- stateless ---\n%s", i, rate, dis, wantDis)
			}
			reused := after[obs.CtrCodeReused] - before[obs.CtrCodeReused]
			audited, unsound := got.Stats.CodeAudited, got.Stats.CodeUnsound
			if rate == 0 && reused == 0 || rate == 1 && (reused != 0 || audited == 0) {
				t.Errorf("edit %d at audit rate %v: %d functions' code reused, %d audited; want fz_kept's taken at rate 0 and audited at rate 1", i, rate, reused, audited)
			}
			// A taken function shares its argument pool with the last
			// object's, even when its code was copied to move a string.
			if kept, old := funcNamed(got.Object, "fz_kept"), funcNamed(r0.Object, "fz_kept"); rate == 0 && &kept.Args[0] != &old.Args[0] {
				t.Errorf("edit %d: fz_kept's code was generated, not taken from the last object", i)
			}
			if unsound != 0 {
				t.Errorf("edit %d: %d unsound code reuses of %d audited", i, unsound, audited)
			}
		}
	}
}

// funcNamed returns obj's function called name.
func funcNamed(obj *codegen.Object, name string) *codegen.FuncCode {
	for _, f := range obj.Funcs {
		if f.Name == name {
			return f
		}
	}
	panic("no function " + name)
}

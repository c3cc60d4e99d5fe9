package buildsys_test

import (
	"regexp"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// firstFunc matches the first function header of a generated unit.
var firstFunc = regexp.MustCompile(`(?m)^func (\w+)\(`)

// TestResidentDiagnosticsMatchStateless: a resident stateful builder that
// could reuse the frontend of every other function of a unit fails an edit
// that adds a syntax error, a type error or a redeclaration with the error
// a stateless builder gives — text and positions — and the build after the
// fix links the stateless reference's program.
func TestResidentDiagnosticsMatchStateless(t *testing.T) {
	base := workload.Generate(workload.QuickSuite()[0])
	units := base.Units()
	unit := units[len(units)-1]
	src := string(base[unit])
	name := firstFunc.FindStringSubmatch(src)[1]
	resident, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resident.Build(base)
	if err != nil {
		t.Fatal(err)
	}
	with := func(text string) project.Snapshot {
		snap := base.Clone()
		snap[unit] = []byte(text)
		return snap
	}
	for _, broken := range []struct{ kind, src string }{
		{"syntax error", src + "\nfunc zz_broken(a int) int {\n    return a +;\n}\n"},
		{"type error", src + "\nfunc zz_broken(a int) int {\n    var b bool = a;\n    return a;\n}\n"},
		{"redeclaration", src + "\nfunc " + name + "() int {\n    return 0;\n}\n"},
	} {
		snap := with(broken.src)
		stateless, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless, Workers: 1, HistoryPath: "-"})
		if err != nil {
			t.Fatal(err)
		}
		_, want := stateless.Build(snap)
		_, got := resident.Build(snap)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s: resident builder's error\n%v\nstateless builder's\n%v", broken.kind, got, want)
		}
		fixed := with(src + "\nfunc zz_fixed(a int) int {\n    return a + 1;\n}\n")
		ref := oracletest.Reference(t, nil, base, fixed)
		reused := rep.Metrics[obs.CtrFuncsReused]
		if rep, err = resident.Build(fixed); err != nil {
			t.Fatalf("%s, fixed: %v", broken.kind, err)
		}
		if d := ref[1].Diff(rep.Program); d != "" {
			t.Fatalf("%s, fixed: %s", broken.kind, d)
		}
		// The unit's memo is the one before the error: the fix, which
		// adds a function, reuses the others.
		if rep.Metrics[obs.CtrFuncsReused] == reused {
			t.Errorf("%s: the build after the fix reused no function's frontend", broken.kind)
		}
		if rep, err = resident.Build(base); err != nil {
			t.Fatal(err)
		}
	}
}

package workload_test

// Tests for the project-wide edit waves and the scale profile: every wave
// stream must keep the project type-correct and behaviourally identical
// across compiler modes, rename waves must actually touch multiple units,
// and MegaProfile must clear the 200-unit mark the footprint battery and
// overhead benchmark rely on.

import (
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

func TestWaveStreamsCompileAndAgree(t *testing.T) {
	for _, kind := range []workload.StreamKind{
		workload.StreamRenameWave, workload.StreamInterfaceChurn,
	} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			stream := oracletest.Stream(smallProfile(1234), kind, 555, 6)
			hist := workload.GenerateHistoryStream(stream[0], 555, 6,
				workload.DefaultCommitOptions(), kind)

			sawWave := false
			for _, edits := range hist.Edits {
				for _, e := range edits {
					if e.Kind == workload.EditRenameWave || e.Kind == workload.EditInterfaceChurn {
						sawWave = true
					}
				}
			}
			if !sawWave {
				t.Fatalf("%s stream produced no wave edits", kind)
			}

			ref := oracletest.Reference(t, nil, stream...)
			oracletest.Walk(t, stream, ref,
				residentMode(t, "stateful", buildsys.Options{Mode: compiler.ModeStateful}, oracletest.Runs(t, ref)))
		})
	}
}

func TestRenameWaveTouchesMultipleUnits(t *testing.T) {
	base := workload.Generate(smallProfile(99))
	ed := workload.NewEditor(7)
	next, edits := ed.RenameWave(base)
	if len(edits) < 2 {
		t.Fatalf("rename wave touched %d units, want >= 2 (defining unit + a caller)", len(edits))
	}
	changed := 0
	for unit, src := range next {
		if string(base[unit]) != string(src) {
			changed++
		}
	}
	if changed != len(edits) {
		t.Fatalf("%d units changed bytes but %d edits reported", changed, len(edits))
	}
	if err := buildOnce(next); err != nil {
		t.Fatalf("post-rename project does not build: %v", err)
	}
}

// buildOnce compiles a snapshot stateless, reporting any frontend, pass, or
// link failure.
func buildOnce(snap project.Snapshot) error {
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless})
	if err != nil {
		return err
	}
	_, err = b.Build(snap)
	return err
}

func TestInterfaceChurnChangesArity(t *testing.T) {
	base := workload.Generate(smallProfile(99))
	ed := workload.NewEditor(7)
	next, edits := ed.InterfaceChurn(base)
	if len(edits) == 0 {
		t.Fatal("interface churn produced no edits")
	}
	if err := buildOnce(next); err != nil {
		t.Fatalf("post-churn project does not build: %v", err)
	}
}

func TestMegaProfileScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale profile generation in -short mode")
	}
	p := workload.MegaProfile()
	snap := workload.Generate(p)
	if len(snap) < 200 {
		t.Fatalf("MegaProfile generated %d units, want >= 200", len(snap))
	}
	if err := buildOnce(snap); err != nil {
		t.Fatalf("mega project does not build: %v", err)
	}
}

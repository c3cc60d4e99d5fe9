package buildsys_test

// Build-under-adversity suite (docs/ROBUSTNESS.md): panic isolation and
// whole-unit quarantine, the soundness sentinel catching a nondeterministic
// pass and auto-quarantining the (unit, pass) pair, cooperative
// cancellation leaving a loadable state directory, and the correctness
// contract holding with auditing enabled. Faults are injected through the
// registered faulthook pass (internal/passes), so every scenario exercises
// the real pipeline, worker pool, and state store — no mocks.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// advPipeline places faulthook mid-pipeline with cleanup passes after it,
// so even a mutate fault's dead IR is swept before codegen — the layout a
// real pipeline's hygiene passes provide.
var advPipeline = []string{"mem2reg", "simplifycfg", "instcombine", "sccp", "faulthook", "dce", "simplifycfg"}

// advSnap returns a three-unit project with known function names.
func advSnap() project.Snapshot {
	return project.Snapshot{
		"a.mc": []byte("func alpha() int { return 1; }\n"),
		"b.mc": []byte("func beta() int { return 2; }\n"),
		"m.mc": []byte("extern func alpha() int;\nextern func beta() int;\nfunc main() int { return alpha() + beta(); }\n"),
	}
}

// TestPanicIsolatedToUnit: a pass panicking on one unit must not fail the
// build — the unit is quarantined, retried stateless, and every other unit
// builds normally; the linked program matches the stateless reference.
func TestPanicIsolatedToUnit(t *testing.T) {
	snap := advSnap()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 2,
		StateDir: t.TempDir(), Pipeline: advPipeline,
	})
	if err != nil {
		t.Fatal(err)
	}

	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultPanic, Func: "beta", Times: 1})
	defer passes.DisarmFaultHook()
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatalf("build with one panicking unit failed: %v", err)
	}
	passes.DisarmFaultHook()

	ur := rep.Units["b.mc"]
	if !ur.Panicked {
		t.Error("b.mc not marked Panicked")
	}
	if ur.Quarantine != core.QuarantinePanic {
		t.Errorf("b.mc quarantine %q, want %q", ur.Quarantine, core.QuarantinePanic)
	}
	for _, name := range []string{"a.mc", "m.mc"} {
		u := rep.Unit(name)
		if u.Cached || u.Panicked || u.Quarantine != "" {
			t.Errorf("%s: cached=%v panicked=%v quarantine=%q, want clean compile", name, u.Cached, u.Panicked, u.Quarantine)
		}
	}
	if rep.Metrics[obs.CtrBuildPanics] != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrBuildPanics, rep.Metrics[obs.CtrBuildPanics])
	}
	if rep.Metrics[obs.CtrQuarantineEngaged] != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrQuarantineEngaged, rep.Metrics[obs.CtrQuarantineEngaged])
	}

	if d := oracletest.Reference(t, advPipeline, snap)[0].Diff(rep.Program); d != "" {
		t.Errorf("panicked-then-isolated build differs from stateless reference: %s", d)
	}
	out, res, err := vm.RunCapture(rep.Program, vm.Config{})
	if err != nil || res.ExitValue != 3 {
		t.Errorf("program ran exit=%d out=%q err=%v, want exit 3", res.ExitValue, out, err)
	}
}

// TestPanicQuarantineLiftsAfterCleanBuilds: a whole-unit quarantine holds
// the unit on the stateless fallback until QuarantineCleanTarget clean
// compiles, then lifts for a cold stateful restart.
func TestPanicQuarantineLiftsAfterCleanBuilds(t *testing.T) {
	snap := advSnap()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 1,
		StateDir: t.TempDir(), Pipeline: advPipeline,
	})
	if err != nil {
		t.Fatal(err)
	}

	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultPanic, Func: "beta", Times: 1})
	defer passes.DisarmFaultHook()
	if _, err := b.Build(snap); err != nil {
		t.Fatalf("panic build: %v", err)
	}
	passes.DisarmFaultHook()

	// Each edit forces a recompile of b.mc; the quarantined unit compiles
	// stateless until the clean count reaches target.
	for i := 1; i <= core.QuarantineCleanTarget; i++ {
		snap["b.mc"] = append(snap["b.mc"], []byte(fmt.Sprintf("// edit %d\n", i))...)
		rep, err := b.Build(snap)
		if err != nil {
			t.Fatalf("clean build %d: %v", i, err)
		}
		ur := rep.Unit("b.mc")
		if ur.Cached {
			t.Fatalf("clean build %d: b.mc not recompiled", i)
		}
		if i < core.QuarantineCleanTarget {
			if ur.Quarantine != core.QuarantinePanic {
				t.Errorf("clean build %d: quarantine %q, want still %q", i, ur.Quarantine, core.QuarantinePanic)
			}
			if ur.Panicked {
				t.Errorf("clean build %d: spurious Panicked", i)
			}
		} else {
			if ur.Quarantine != "" {
				t.Errorf("lift build: quarantine %q, want lifted", ur.Quarantine)
			}
			if rep.Metrics[obs.CtrQuarantineLifted] != 1 {
				t.Errorf("%s = %d, want 1", obs.CtrQuarantineLifted, rep.Metrics[obs.CtrQuarantineLifted])
			}
		}
	}

	// Post-lift: the unit compiles stateful again (cold restart) and the
	// whole history stayed byte-identical to stateless.
	snap["b.mc"] = append(snap["b.mc"], []byte("// post-lift\n")...)
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if ur := rep.Units["b.mc"]; ur.Quarantine != "" || ur.Panicked {
		t.Errorf("post-lift build: %+v, want plain stateful compile", ur)
	}
	if d := oracletest.Reference(t, advPipeline, snap)[0].Diff(rep.Program); d != "" {
		t.Errorf("post-lift build differs from stateless reference: %s", d)
	}
}

// TestSentinelCatchesUnsoundSkip: at audit rate 1 the sentinel executes a
// would-be-skipped pass that (armed to mutate-but-lie) produces different
// IR, flags the unsound skip, quarantines the (unit, pass) pair — and the
// final program still matches the stateless reference because the sentinel
// leaves exactly the IR a stateless compiler would have produced.
func TestSentinelCatchesUnsoundSkip(t *testing.T) {
	snap := project.Snapshot{
		"u.mc": []byte("func helper() int { return 7; }\nfunc main() int { return helper() + 35; }\n"),
	}
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 1,
		StateDir: t.TempDir(), Pipeline: advPipeline, AuditRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(snap); err != nil {
		t.Fatalf("warmup build: %v", err)
	}

	// Edit main only: helper's records stay warm and skippable, so the
	// sentinel audits them. The armed hook mutates helper's IR while
	// reporting "no change" — the lie the sentinel exists to catch.
	snap["u.mc"] = []byte("func helper() int { return 7; }\nfunc main() int { return helper() + 36; }\n")
	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultMutate, Func: "helper"})
	defer passes.DisarmFaultHook()
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatalf("audited build: %v", err)
	}
	passes.DisarmFaultHook()

	audited, unsound := rep.Stats().SentinelTotals()
	if audited == 0 {
		t.Fatal("audit rate 1 recorded no audits")
	}
	if unsound < 1 {
		t.Fatalf("sentinel missed the unsound skip (audited=%d unsound=%d)", audited, unsound)
	}
	if rep.Metrics[obs.CtrAuditSampled] == 0 || rep.Metrics[obs.CtrAuditUnsound] < 1 {
		t.Errorf("counters: %s=%d %s=%d", obs.CtrAuditSampled, rep.Metrics[obs.CtrAuditSampled],
			obs.CtrAuditUnsound, rep.Metrics[obs.CtrAuditUnsound])
	}
	ur := rep.Units["u.mc"]
	if ur.Quarantine != core.QuarantineUnsound {
		t.Errorf("unit quarantine %q, want %q", ur.Quarantine, core.QuarantineUnsound)
	}
	var hookSlot *core.SlotStats
	for i := range ur.Passes {
		if rep.PassName(i, &ur.Passes[i]) == "faulthook" && ur.Passes[i].Unsound > 0 {
			hookSlot = &ur.Passes[i]
		}
	}
	if hookSlot == nil {
		t.Error("no slot charged the unsound skip to faulthook")
	}
	if d := oracletest.Reference(t, advPipeline, snap)[0].Diff(rep.Program); d != "" {
		t.Errorf("audited build with unsound pass differs from stateless reference: %s", d)
	}
}

// TestSentinelQuarantineSuspendsSkippingThenLifts: a per-pass quarantine
// forces the pass to run (decision "quarantined") on every subsequent
// compile; after QuarantineCleanTarget clean compiles it lifts and
// skipping resumes on the records kept warm throughout.
func TestSentinelQuarantineSuspendsSkippingThenLifts(t *testing.T) {
	edit := func(i int) project.Snapshot {
		return project.Snapshot{
			"u.mc": []byte(fmt.Sprintf("func helper() int { return 7; }\nfunc main() int { return helper() + %d; }\n", i)),
		}
	}
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 1,
		StateDir: t.TempDir(), Pipeline: advPipeline, AuditRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(edit(0)); err != nil {
		t.Fatal(err)
	}

	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultMutate, Func: "helper", Times: 1})
	defer passes.DisarmFaultHook()
	rep, err := b.Build(edit(1))
	if err != nil {
		t.Fatal(err)
	}
	passes.DisarmFaultHook()
	if ur := rep.Units["u.mc"]; ur.Quarantine != core.QuarantineUnsound {
		t.Fatalf("setup: quarantine %q, want %q", ur.Quarantine, core.QuarantineUnsound)
	}

	// Clean compiles: faulthook must run with decision "quarantined" while
	// quarantined, then lift at target; every one links the stateless
	// reference's program.
	var clean []project.Snapshot
	for i := 1; i <= core.QuarantineCleanTarget; i++ {
		clean = append(clean, edit(i+1))
	}
	oracletest.Walk(t, clean, oracletest.Reference(t, advPipeline, clean...), oracletest.Candidate{
		Name: "quarantined stateful", Build: oracletest.Resident(b),
		Check: func(i int, r *buildsys.Report) {
			rep = r
			ur := rep.Units["u.mc"]
			if i+1 < core.QuarantineCleanTarget {
				if ur.Quarantine != core.QuarantineUnsound {
					t.Errorf("clean build %d: quarantine %q, want still engaged", i+1, ur.Quarantine)
				}
				quarantinedRuns := 0
				for i := range ur.Passes {
					if rep.PassName(i, &ur.Passes[i]) == "faulthook" {
						quarantinedRuns += ur.Passes[i].Quarantined
					}
				}
				if quarantinedRuns == 0 {
					t.Errorf("clean build %d: faulthook not forced to run under quarantine", i+1)
				}
			} else if ur.Quarantine != "" {
				t.Errorf("lift build: quarantine %q, want lifted", ur.Quarantine)
			}
		},
	})
	if rep.Metrics[obs.CtrQuarantineLifted] != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrQuarantineLifted, rep.Metrics[obs.CtrQuarantineLifted])
	}

	// Post-lift: skipping resumes (records stayed warm under quarantine).
	rep, err = b.Build(edit(99))
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, pd := range rep.Units["u.mc"].Passes {
		skipped += pd.Skipped
	}
	if skipped == 0 {
		t.Error("post-lift build skipped nothing; warm records lost")
	}
}

// TestCancelledBuildLeavesStateLoadable: cancelling a build mid-flight
// (one compile held open by the block fault) yields a partial report and a
// wrapped context error; a fresh builder on the same state directory then
// builds cleanly with zero state I/O errors and stateless-identical output.
func TestCancelledBuildLeavesStateLoadable(t *testing.T) {
	snap := workload.Generate(testProfile(83))
	stateDir := t.TempDir()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 2,
		StateDir: stateDir, Pipeline: advPipeline,
	})
	if err != nil {
		t.Fatal(err)
	}

	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultBlock, Times: 1})
	defer passes.DisarmFaultHook()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *buildsys.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := b.BuildContext(ctx, snap)
		done <- result{rep, err}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for passes.FaultHookFired() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("block fault never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	passes.ReleaseFaultHook()

	res := <-done
	if res.err == nil || !errors.Is(res.err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", res.err)
	}
	if res.rep == nil {
		t.Fatal("cancelled build returned no partial report")
	}
	if res.rep.Program != nil {
		t.Error("cancelled build linked a program")
	}
	if res.rep.Metrics[obs.CtrBuildCancelled] != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrBuildCancelled, res.rep.Metrics[obs.CtrBuildCancelled])
	}
	passes.DisarmFaultHook()

	// Cold start on the state directory the cancelled build left behind.
	b2, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 2,
		StateDir: stateDir, Pipeline: advPipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := b2.Build(snap)
	if err != nil {
		t.Fatalf("build after cancellation: %v", err)
	}
	if rep2.Metrics[obs.CtrStateIOErrors] != 0 {
		t.Errorf("state dir inconsistent after cancellation: %d I/O errors", rep2.Metrics[obs.CtrStateIOErrors])
	}
	if d := oracletest.Reference(t, advPipeline, snap)[0].Diff(rep2.Program); d != "" {
		t.Errorf("post-cancellation build differs from stateless reference: %s", d)
	}
}

// TestAuditedBuildsMatchStateless: the correctness contract holds with the
// sentinel sampling (p=0.05) and saturated (p=1) across an edit history —
// auditing may only confirm or repair skips, never change output.
func TestAuditedBuildsMatchStateless(t *testing.T) {
	seq := history(71, 4)
	ref := oracletest.Reference(t, nil, seq...)
	for _, rate := range []float64{0.05, 1} {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Workers: 4, AuditRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		oracletest.Walk(t, seq, ref, oracletest.Candidate{
			Name: fmt.Sprintf("audit=%v", rate), Build: oracletest.Resident(b), Check: oracletest.Runs(t, ref),
		})
	}
}

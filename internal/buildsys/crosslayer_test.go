package buildsys_test

// A fault plan across the three injectors: the disk (vfs.FaultFS under the
// state directory), the wire (cas.FaultTransport under the shared cache
// client) and the pipeline (the faulthook pass), all in one build sequence
// over one state directory and one cache server.

import (
	"context"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/faults"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/passes"
	"statefulcc/internal/vfs"
)

// TestCrossLayerFaultPlan: build 1 fails unit b.mc's state save and
// refuses the PUT that publishes its object; build 2, after an edit of
// b.mc, is cancelled while b.mc's compile is held by the block fault.
// Every fault fires and is counted, and a fresh builder on the same state
// directory and server then builds output identical to the stateless
// oracle.
func TestCrossLayerFaultPlan(t *testing.T) {
	const unit = "b.mc"
	snap := advSnap()
	edited := advSnap()
	edited[unit] = []byte("func beta() int { return 3; }\n")
	oracle := oracletest.Reference(t, advPipeline, edited)[0]

	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: obs.NewRegistry()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	stateDir := t.TempDir()
	client := func(ft *cas.FaultTransport) cas.Store {
		return cas.NewHTTPCASOpts(hs.URL, "", cas.HTTPOptions{
			Transport: ft, Backoff: time.Millisecond, FetchBudget: 300 * time.Millisecond,
		})
	}

	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{
		Op: vfs.OpOpenFile, Path: filepath.Base(buildsys.StatePath(stateDir, unit)), Kind: vfs.FaultError,
	}))
	action := cas.ActionKey("statefulcc/object", core.StateVersion, cas.BlobFormatVersion,
		compiler.ModeStateful.String(), advPipeline, unit, snap[unit])
	ft := cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{
		Method: "PUT", Path: "/cas/action/" + action.String(), Kind: cas.NetRefused,
	}))
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 2, Pipeline: advPipeline,
		StateDir: stateDir, FS: ffs, CAS: client(ft),
	})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b, snap)
	for _, log := range []*faults.Log{ffs.Log, ft.Log} {
		if len(log.Injected()) == 0 {
			t.Fatalf("build 1: a planned fault never fired (calls: %v)", log.Calls())
		}
	}

	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultBlock, Func: "beta", Times: 1})
	defer passes.DisarmFaultHook()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := b.BuildContext(ctx, edited)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for passes.FaultHookFired() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("build 2: the block fault never fired")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	passes.ReleaseFaultHook()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("build 2 returned %v, want context.Canceled", err)
	}
	passes.DisarmFaultHook()

	m := b.Metrics()
	for _, ctr := range []string{obs.CtrStateIOErrors, obs.CtrCASNetErrors, obs.CtrBuildCancelled} {
		if m[ctr] == 0 {
			t.Errorf("%s = 0 after the plan's faults", ctr)
		}
	}

	fresh, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 2, Pipeline: advPipeline,
		StateDir: stateDir, CAS: client(cas.NewFaultTransport(nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := mustBuild(t, fresh, edited).Program; oracle.Diff(p) != "" {
		t.Errorf("build after the plan differs from the stateless oracle: %s\n%s\nwant:\n%s",
			oracle.Diff(p), codegen.DisassembleProgram(p), oracle.Dis)
	}
}

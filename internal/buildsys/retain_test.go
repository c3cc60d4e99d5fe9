package buildsys_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
)

// TestBuildDoesNotRetainIR follows the modules of a three-unit build with
// finalizers. A unit's IR is garbage once its compile has returned — while
// its result still waits for the link, and then behind the Report and the
// resident Builder (whose workers keep their scratch memory, wiped) — so
// the first unit's module is collected while the third is still compiling,
// and all three once Build has returned.
//
// The finalizer sits on a public global of each module, not on the module:
// module, functions, blocks and values point at each other, and a finalizer
// inside a cycle never runs. The global points nowhere and is reachable
// only through its module's list (globalopt leaves public globals there).
// Every unit has a local: its alloca is what a slot table left unwiped in the
// worker's scratch would still point to.
func TestBuildDoesNotRetainIR(t *testing.T) {
	snap := project.Snapshot{
		"a.mc": []byte("var ga int = 1;\nfunc fa(x int) int { var y int = x + ga; return y * 2; }\n"),
		"b.mc": []byte("var gb int = 2;\nfunc fb(x int) int { var y int = x - gb; return y * 3; }\n"),
		"c.mc": []byte("var gc int = 3;\nextern func fa(x int) int;\nextern func fb(x int) int;\nfunc main() int { var r int = fa(gc) + fb(gc); return r; }\n"),
	}
	// One worker compiles the units in name order, so that "a is done" is a
	// fact when c is observed.
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, Workers: 1, StateDir: t.TempDir(),
		Pipeline: []string{"mem2reg", "faulthook", "globalopt", "dce"},
	})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	collected := map[string]bool{}
	isCollected := func(unit string) bool {
		mu.Lock()
		defer mu.Unlock()
		return collected[unit]
	}
	// awaitCollected runs collections until the units' finalizers have run;
	// they run on the runtime's own goroutine, some time after the
	// collection that found the object unreachable.
	awaitCollected := func(units ...string) bool {
		for try := 0; try < 200; try++ {
			runtime.GC()
			done := true
			for _, u := range units {
				done = done && isCollected(u)
			}
			if done {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}

	watched := map[string]bool{}
	firstGoneDuringBuild := false
	passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultObserve, Observe: func(f *ir.Func) {
		m := f.Module
		if !watched[m.Unit] {
			watched[m.Unit] = true
			unit := m.Unit
			runtime.SetFinalizer(m.FindGlobal("g"+unit[:1]), func(*ir.Global) {
				mu.Lock()
				collected[unit] = true
				mu.Unlock()
			})
		}
		if m.Unit == "c.mc" {
			firstGoneDuringBuild = awaitCollected("a.mc")
		}
	}})
	defer passes.DisarmFaultHook()

	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(watched) != 3 {
		t.Fatalf("observed the modules of %d units, want 3", len(watched))
	}
	if !firstGoneDuringBuild {
		t.Error("a.mc's IR was still reachable while c.mc compiled: the build holds a finished unit's module")
	}
	if !awaitCollected("a.mc", "b.mc", "c.mc") {
		t.Errorf("after Build, with Report and Builder held, IR still reachable: collected %v", collected)
	}
	runtime.KeepAlive(rep)
	runtime.KeepAlive(b)
}

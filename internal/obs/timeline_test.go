package obs

import (
	"strings"
	"testing"
)

// validTimeline is a well-formed two-worker schedule used as the mutation
// base for the Validate rejection cases and as the Analyze fixture:
//
//	worker 0: a [100,500], b [520,1100]   (b queue-waits 20ns on a)
//	worker 1: c [150,400]                 (50ns lead-in starvation)
//
// CompileStartNS=100, so rebased: a [0,400], b [420,1000], c [50,300].
func validTimeline() *Timeline {
	return &Timeline{
		Workers:        2,
		WallNS:         1200,
		CompileStartNS: 100,
		CompileWallNS:  1000,
		LinkNS:         50,
		Events: []UnitEvent{
			{Unit: "a", Worker: 0, Outcome: OutcomeCompile, EnqueueNS: 100, StartNS: 100, EndNS: 500,
				FrontendNS: 100, PassesNS: 200, CodegenNS: 100},
			{Unit: "b", Worker: 0, Outcome: OutcomeCompile, EnqueueNS: 100, StartNS: 520, EndNS: 1100},
			{Unit: "c", Worker: 1, Outcome: OutcomeCompile, EnqueueNS: 100, StartNS: 150, EndNS: 400},
		},
	}
}

// TestTimelineValidateAccepts: a well-formed schedule validates, and so does
// the timeline of a fully cached build, which has no events.
func TestTimelineValidateAccepts(t *testing.T) {
	tl := validTimeline()
	if err := tl.Validate(); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	tl.Events, tl.CompileWallNS = []UnitEvent{}, 0
	if err := tl.Validate(); err != nil {
		t.Fatalf("timeline of a fully cached build, no events, rejected: %v", err)
	}
}

func TestTimelineValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Timeline)
	}{
		{"zero workers", func(tl *Timeline) { tl.Workers = 0 }},
		{"negative wall", func(tl *Timeline) { tl.WallNS = -1 }},
		{"negative compile start", func(tl *Timeline) { tl.CompileStartNS = -1 }},
		{"negative link", func(tl *Timeline) { tl.LinkNS = -1 }},
		{"events out of unit order", func(tl *Timeline) {
			tl.Events[0], tl.Events[1] = tl.Events[1], tl.Events[0]
		}},
		{"empty unit name", func(tl *Timeline) { tl.Events[0].Unit = "" }},
		{"start before enqueue", func(tl *Timeline) { tl.Events[0].StartNS = tl.Events[0].EnqueueNS - 1 }},
		{"end before start", func(tl *Timeline) { tl.Events[0].EndNS = tl.Events[0].StartNS - 1 }},
		{"negative enqueue", func(tl *Timeline) { tl.Events[2].EnqueueNS = -1 }},
		{"worker out of range", func(tl *Timeline) { tl.Events[0].Worker = 2 }},
		{"unscheduled event", func(tl *Timeline) { tl.Events[2].Worker = -1 }},
		{"end past compile phase", func(tl *Timeline) { tl.Events[1].EndNS = 1101 }},
		{"negative stage time", func(tl *Timeline) { tl.Events[0].PassesNS = -1 }},
	}
	for _, tc := range cases {
		tl := validTimeline()
		tc.mutate(tl)
		if err := tl.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt timeline", tc.name)
		}
	}
}

func TestAnalyzeCriticalChain(t *testing.T) {
	cp := Analyze(validTimeline())

	// The chain is a → b on worker 0 (b ends last, a is its predecessor).
	if len(cp.Chain) != 2 || cp.Chain[0].Unit != "a" || cp.Chain[1].Unit != "b" {
		t.Fatalf("chain = %+v, want [a b]", cp.Chain)
	}
	if cp.PathNS != 400+580 {
		t.Errorf("PathNS = %d, want 980", cp.PathNS)
	}
	if cp.TotalNS != 1000 {
		t.Errorf("TotalNS = %d, want 1000 (rebased end of b)", cp.TotalNS)
	}
	if cp.TotalNS > cp.CompileWallNS {
		t.Errorf("TotalNS %d exceeds compile wall %d", cp.TotalNS, cp.CompileWallNS)
	}
	if cp.LongestUnit != "b" || cp.LongestUnitNS != 580 {
		t.Errorf("longest unit = %s/%d, want b/580", cp.LongestUnit, cp.LongestUnitNS)
	}
	if cp.TotalNS < cp.LongestUnitNS {
		t.Errorf("TotalNS %d below longest unit %d", cp.TotalNS, cp.LongestUnitNS)
	}

	// b's 20ns gap after a frees worker 0 is queue wait; a has no wait.
	if b := cp.Chain[1]; b.WaitNS != 20 || b.WaitCause != WaitQueue {
		t.Errorf("chain link b wait = %d/%q, want 20/%q", b.WaitNS, b.WaitCause, WaitQueue)
	}
	if a := cp.Chain[0]; a.WaitNS != 0 || a.WaitCause != "" {
		t.Errorf("chain link a wait = %d/%q, want 0/empty", a.WaitNS, a.WaitCause)
	}

	// Whole-schedule wait totals: starts minus rebased enqueues (queue), no
	// dependency-ordered jobs yet, and both workers' idle (20 + 750).
	if cp.QueueWaitNS != 0+420+50 {
		t.Errorf("QueueWaitNS = %d, want 470", cp.QueueWaitNS)
	}
	if cp.DependencyWaitNS != 0 {
		t.Errorf("DependencyWaitNS = %d, want 0", cp.DependencyWaitNS)
	}
	if cp.StarvationNS != 20+750 {
		t.Errorf("StarvationNS = %d, want 770", cp.StarvationNS)
	}

	// Per-worker loads cover every configured slot.
	if len(cp.Workers) != 2 {
		t.Fatalf("worker loads = %d entries, want 2", len(cp.Workers))
	}
	w0, w1 := cp.Workers[0], cp.Workers[1]
	if w0.Units != 2 || w0.BusyNS != 980 || w0.IdleNS != 20 || w0.LongestGapNS != 20 {
		t.Errorf("worker 0 load = %+v", w0)
	}
	if w1.Units != 1 || w1.BusyNS != 250 || w1.IdleNS != 750 || w1.LongestGapNS != 700 {
		t.Errorf("worker 1 load = %+v", w1)
	}

	if s := cp.String(); !strings.Contains(s, "critical path: 2 units") {
		t.Errorf("String() missing chain summary:\n%s", s)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	a, b := Analyze(validTimeline()), Analyze(validTimeline())
	if a.String() != b.String() {
		t.Error("two analyses of the same timeline differ")
	}
	if len(a.Chain) != len(b.Chain) {
		t.Fatalf("chain lengths differ: %d vs %d", len(a.Chain), len(b.Chain))
	}
	for i := range a.Chain {
		if a.Chain[i].Unit != b.Chain[i].Unit {
			t.Errorf("chain link %d differs: %s vs %s", i, a.Chain[i].Unit, b.Chain[i].Unit)
		}
	}
}

func TestAnalyzeNothingCompiled(t *testing.T) {
	cp := Analyze(&Timeline{Workers: 4, WallNS: 100, CompileWallNS: 0, LinkNS: 10, Events: []UnitEvent{}})
	if len(cp.Chain) != 0 || cp.TotalNS != 0 || cp.PathNS != 0 {
		t.Errorf("fully cached build produced a chain: %+v", cp)
	}
	if len(cp.Workers) != 4 {
		t.Errorf("worker loads = %d entries, want 4 (idle slots included)", len(cp.Workers))
	}
}

func TestClassifyWait(t *testing.T) {
	cases := []struct {
		name                  string
		wait, enqueue, freeAt int64
		hadPred               bool
		want                  string
	}{
		{"no gap", 0, 0, 0, true, ""},
		{"dispatch gap after a predecessor", 20, 0, 400, true, WaitQueue},
		{"lead-in idle before a worker's first unit", 100, 0, 0, false, WaitStarved},
		{"readiness dominates the gap", 100, 80, 0, false, WaitDependency},
		{"readiness sliver must not relabel a long idle", 47_000_000, 7_000, 0, false, WaitStarved},
	}
	for _, tc := range cases {
		if got := classifyWait(tc.wait, tc.enqueue, tc.freeAt, tc.hadPred); got != tc.want {
			t.Errorf("%s: classifyWait = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeZeroDurationTies(t *testing.T) {
	// Two zero-duration events sharing one timestamp on one worker: the
	// visited map must keep the backward walk terminating instead of
	// bouncing between events that "end at or before" each other's start.
	cp := Analyze(&Timeline{
		Workers: 1, WallNS: 20, CompileStartNS: 0, CompileWallNS: 20,
		Events: []UnitEvent{
			{Unit: "x", Worker: 0, Outcome: OutcomeCompile, EnqueueNS: 10, StartNS: 10, EndNS: 10},
			{Unit: "y", Worker: 0, Outcome: OutcomeCompile, EnqueueNS: 10, StartNS: 10, EndNS: 10},
		},
	})
	if len(cp.Chain) != 2 {
		t.Fatalf("chain = %+v, want both zero-duration units", cp.Chain)
	}
	if cp.PathNS != 0 || cp.TotalNS != 10 {
		t.Errorf("PathNS/TotalNS = %d/%d, want 0/10", cp.PathNS, cp.TotalNS)
	}
}

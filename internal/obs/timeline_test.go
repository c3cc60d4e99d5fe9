package obs

import (
	"reflect"
	"testing"
)

// validTimeline is a well-formed two-worker schedule used as the mutation
// base for the Validate rejection cases and as the Analyze fixture:
//
//	worker 0: a [100,500], b [520,1100]   (b queue-waits 20ns on a)
//	worker 1: c [150,400]                 (50ns lead-in starvation)
//
// CompileStartNS=100, so rebased: a [0,400], b [420,1000], c [50,300]. The
// build's worker count and times, which its record holds, are validPhases.
func validTimeline() *Timeline {
	return &Timeline{
		CompileStartNS: 100,
		Events: []UnitEvent{
			{Unit: "a", Worker: 0, Outcome: OutcomeCompile, StartNS: 100, EndNS: 500,
				FrontendNS: 100, PassesNS: 200, CodegenNS: 100},
			{Unit: "b", Worker: 0, Outcome: OutcomeCompile, StartNS: 520, EndNS: 1100},
			{Unit: "c", Worker: 1, Outcome: OutcomeCompile, StartNS: 150, EndNS: 400},
		},
	}
}

// phases is what Validate and Analyze take from a build's record.
type phases struct {
	workers                   int
	wallNS, compileNS, linkNS int64
}

var validPhases = phases{workers: 2, wallNS: 1200, compileNS: 1000, linkNS: 50}

func (p phases) validate(tl *Timeline) error {
	return tl.Validate(p.workers, p.wallNS, p.compileNS, p.linkNS)
}

func analyze(tl *Timeline) *CritPath {
	return Analyze(tl, validPhases.workers, validPhases.compileNS)
}

// TestTimelineValidateAccepts: a well-formed schedule validates, and so does
// the timeline of a fully cached build, which has no events.
func TestTimelineValidateAccepts(t *testing.T) {
	tl := validTimeline()
	if err := validPhases.validate(tl); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	tl.Events = []UnitEvent{}
	cached := validPhases
	cached.compileNS = 0
	if err := cached.validate(tl); err != nil {
		t.Fatalf("timeline of a fully cached build, no events, rejected: %v", err)
	}
}

func TestTimelineValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Timeline, *phases)
	}{
		{"zero workers", func(tl *Timeline, p *phases) { p.workers = 0 }},
		{"negative wall", func(tl *Timeline, p *phases) { p.wallNS = -1 }},
		{"negative compile start", func(tl *Timeline, p *phases) { tl.CompileStartNS = -1 }},
		{"negative link", func(tl *Timeline, p *phases) { p.linkNS = -1 }},
		{"events out of unit order", func(tl *Timeline, p *phases) {
			tl.Events[0], tl.Events[1] = tl.Events[1], tl.Events[0]
		}},
		{"empty unit name", func(tl *Timeline, p *phases) { tl.Events[0].Unit = "" }},
		{"start before the compile phase", func(tl *Timeline, p *phases) { tl.Events[0].StartNS = tl.CompileStartNS - 1 }},
		{"end before start", func(tl *Timeline, p *phases) { tl.Events[0].EndNS = tl.Events[0].StartNS - 1 }},
		{"worker out of range", func(tl *Timeline, p *phases) { tl.Events[0].Worker = 2 }},
		{"fewer workers than the events used", func(tl *Timeline, p *phases) { p.workers = 1 }},
		{"unscheduled event", func(tl *Timeline, p *phases) { tl.Events[2].Worker = -1 }},
		{"end past compile phase", func(tl *Timeline, p *phases) { tl.Events[1].EndNS = 1101 }},
		{"compile phase shorter than the events", func(tl *Timeline, p *phases) { p.compileNS = 999 }},
		{"negative stage time", func(tl *Timeline, p *phases) { tl.Events[0].PassesNS = -1 }},
	}
	for _, tc := range cases {
		tl, p := validTimeline(), validPhases
		tc.mutate(tl, &p)
		if err := p.validate(tl); err == nil {
			t.Errorf("%s: Validate accepted a corrupt timeline", tc.name)
		}
	}
}

// TestTimelineBusy: the busy time is the events' durations summed.
func TestTimelineBusy(t *testing.T) {
	if busy := validTimeline().BusyNS(); busy != 400+580+250 {
		t.Errorf("BusyNS = %d, want 1230", busy)
	}
	if busy := (&Timeline{}).BusyNS(); busy != 0 {
		t.Errorf("BusyNS of no events = %d", busy)
	}
}

func TestAnalyzeCriticalChain(t *testing.T) {
	cp := analyze(validTimeline())

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
	if cp.TotalNS > validPhases.compileNS {
		t.Errorf("TotalNS %d exceeds compile wall %d", cp.TotalNS, validPhases.compileNS)
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

	// Whole-schedule wait totals: rebased starts (queue) and both workers'
	// idle (20 + 750).
	if cp.QueueWaitNS != 0+420+50 {
		t.Errorf("QueueWaitNS = %d, want 470", cp.QueueWaitNS)
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

}

func TestAnalyzeDeterministic(t *testing.T) {
	if a, b := analyze(validTimeline()), analyze(validTimeline()); !reflect.DeepEqual(a, b) {
		t.Errorf("two analyses of the same timeline differ:\n%+v\n%+v", a, b)
	}
}

func TestAnalyzeNothingCompiled(t *testing.T) {
	cp := Analyze(&Timeline{Events: []UnitEvent{}}, 4, 0)
	if len(cp.Chain) != 0 || cp.TotalNS != 0 || cp.PathNS != 0 {
		t.Errorf("fully cached build produced a chain: %+v", cp)
	}
	if len(cp.Workers) != 4 {
		t.Errorf("worker loads = %d entries, want 4 (idle slots included)", len(cp.Workers))
	}
}

func TestClassifyWait(t *testing.T) {
	cases := []struct {
		name    string
		wait    int64
		hadPred bool
		want    string
	}{
		{"no gap", 0, true, ""},
		{"dispatch gap after a predecessor", 20, true, WaitQueue},
		{"lead-in idle before a worker's first unit", 100, false, WaitStarved},
	}
	for _, tc := range cases {
		if got := classifyWait(tc.wait, tc.hadPred); got != tc.want {
			t.Errorf("%s: classifyWait = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeZeroDurationTies(t *testing.T) {
	// Two zero-duration events sharing one timestamp on one worker: the
	// visited map must keep the backward walk terminating instead of
	// bouncing between events that "end at or before" each other's start.
	cp := Analyze(&Timeline{
		Events: []UnitEvent{
			{Unit: "x", Worker: 0, Outcome: OutcomeCompile, StartNS: 10, EndNS: 10},
			{Unit: "y", Worker: 0, Outcome: OutcomeCompile, StartNS: 10, EndNS: 10},
		},
	}, 1, 20)
	if len(cp.Chain) != 2 {
		t.Fatalf("chain = %+v, want both zero-duration units", cp.Chain)
	}
	if cp.PathNS != 0 || cp.TotalNS != 10 {
		t.Errorf("PathNS/TotalNS = %d/%d, want 0/10", cp.PathNS, cp.TotalNS)
	}
}

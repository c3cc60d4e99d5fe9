package faults

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRuleSelection: a glob with a separator is anchored to the whole path,
// one without also matches the base name; Nth picks one matching call and
// Count widens it to a run; calls the rule does not match are not counted.
func TestRuleSelection(t *testing.T) {
	calls := []Call{
		{"write", "state/a.state", 1},
		{"read", "state/a.state", 1},
		{"write", "x/state/a.state", 1},
		{"write", "state/a.state", 2},
		{"write", "b.state", 1},
		{"write", "state/a.state", 3},
		{"write", "state/a.state", 4},
	}
	for _, tc := range []struct {
		name  string
		rule  Rule
		fires string // indices into calls
	}{
		{"anchored", Rule{Path: "state/*.state"}, "0 1 3 5 6"},
		{"anchored-no-base-fallback", Rule{Path: "state/a.state"}, "0 1 3 5 6"},
		{"base", Rule{Path: "a.state"}, "0 1 2 3 5 6"},
		{"base-glob", Rule{Op: "write", Path: "*.state"}, "0 2 3 4 5 6"},
		{"any", Rule{}, "0 1 2 3 4 5 6"},
		{"nth", Rule{Op: "write", Path: "state/a.state", Nth: 2}, "3"},
		{"nth-count", Rule{Op: "write", Path: "*.state", Nth: 2, Count: 3}, "2 3 4"},
		{"count-without-nth", Rule{Op: "read", Count: 5}, "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLog(tc.rule)
			var fired []string
			for i, c := range calls {
				got, r := l.Next(c.Op, c.Path)
				if got.N != c.N {
					t.Fatalf("call %d numbered %d, want %d", i, got.N, c.N)
				}
				if r == 0 {
					fired = append(fired, fmt.Sprint(i))
				}
			}
			if got := strings.Join(fired, " "); got != tc.fires {
				t.Errorf("fired on %q, want %q", got, tc.fires)
			}
		})
	}
}

// TestFirstFiringRuleWins: a call goes to the first rule whose window it
// falls in; a rule that matched but is outside its window passes the call
// on, and still counts it.
func TestFirstFiringRuleWins(t *testing.T) {
	l := NewLog(Rule{Op: "write", Nth: 2}, Rule{Op: "write"})
	var got []int
	for i := 0; i < 3; i++ {
		_, r := l.Next("write", "f")
		got = append(got, r)
	}
	if fmt.Sprint(got) != "[1 0 1]" {
		t.Fatalf("rules fired %v, want [1 0 1]", got)
	}
}

// TestOccurrenceNumberingConcurrent: calls on distinct paths from
// concurrent goroutines are numbered per path, in each goroutine's order,
// whatever the interleaving; the logs see every call once.
func TestOccurrenceNumberingConcurrent(t *testing.T) {
	const workers, perWorker = 8, 200
	l := NewLog()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for n := 1; n <= perWorker; n++ {
				c, r := l.Next("write", path)
				if c.N != n || r != -1 {
					t.Errorf("%s: call %d numbered %d, rule %d", path, n, c.N, r)
				}
				if n%10 == 0 {
					l.Inject(c)
				}
			}
		}(fmt.Sprintf("p%d", w))
	}
	wg.Wait()
	calls := l.Calls()
	if len(calls) != workers*perWorker {
		t.Fatalf("logged %d calls, want %d", len(calls), workers*perWorker)
	}
	next := map[string]int{}
	for _, c := range calls {
		next[c.Path]++
		if c.N != next[c.Path] {
			t.Fatalf("log has %v after %d calls on its path", c, next[c.Path]-1)
		}
	}
	if n := len(l.Injected()); n != workers*perWorker/10 {
		t.Fatalf("injected log has %d calls, want %d", n, workers*perWorker/10)
	}
}

// The golden schedule: for seeds 1, 7 and 99 at Prob 0.3, the calls each
// injector faulted before the core existed, with the kind it drew. fs is
// vfs.Schedule with Torn (a faulted write whose bit 33 is set is torn);
// wire is cas.NetSchedule over every kind (bits 33 up, modulo the kinds).
var goldenCalls = []struct {
	Op, Path string
	N        int
}{
	{"write", "unit.state", 1},
	{"read", "/cas/obj/ab12", 1},
	{"open", "/cas/lease/k1", 1},
	{"close", "state/a.state", 1},
	{"GET", "/cas/action/ff00", 1},
	{"PUT", "b/c/d.state", 1},
	{"POST", "history.jsonl", 1},
	{"rename", "main.mc", 1},
	{"write", "unit.state", 2},
	{"GET", "/cas/obj/ab12", 2},
	{"write", "/cas/lease/k1", 2},
	{"read", "state/a.state", 2},
	{"open", "/cas/action/ff00", 2},
	{"close", "b/c/d.state", 2},
	{"GET", "history.jsonl", 2},
	{"PUT", "main.mc", 2},
	{"POST", "unit.state", 3},
	{"rename", "/cas/obj/ab12", 3},
	{"write", "/cas/lease/k1", 3},
	{"GET", "state/a.state", 3},
	{"write", "/cas/action/ff00", 3},
	{"read", "b/c/d.state", 3},
	{"open", "history.jsonl", 3},
	{"close", "main.mc", 3},
	{"GET", "unit.state", 4},
	{"PUT", "/cas/obj/ab12", 4},
	{"POST", "/cas/lease/k1", 4},
	{"rename", "state/a.state", 4},
	{"write", "/cas/action/ff00", 4},
	{"GET", "b/c/d.state", 4},
	{"write", "history.jsonl", 4},
	{"read", "main.mc", 4},
	{"open", "unit.state", 5},
	{"close", "/cas/obj/ab12", 5},
	{"GET", "/cas/lease/k1", 5},
	{"PUT", "state/a.state", 5},
	{"POST", "/cas/action/ff00", 5},
	{"rename", "b/c/d.state", 5},
	{"write", "history.jsonl", 5},
	{"GET", "main.mc", 5},
	{"write", "unit.state", 6},
	{"read", "/cas/obj/ab12", 6},
	{"open", "/cas/lease/k1", 6},
	{"close", "state/a.state", 6},
	{"GET", "/cas/action/ff00", 6},
	{"PUT", "b/c/d.state", 6},
	{"POST", "history.jsonl", 6},
	{"rename", "main.mc", 6},
	{"write", "unit.state", 7},
	{"GET", "/cas/obj/ab12", 7},
}

var golden = []struct {
	seed     uint64
	fs, wire string
}{
	{1,
		"1:error 3:error 6:error 7:error 11:error 17:error 20:torn 23:error 27:error 29:error 33:error 36:error 39:error 46:error 47:error 49:error",
		"1:5xx 3:stall 6:stall 7:stall 11:stall 17:latency 20:refused 23:stall 27:5xx 29:bitflip 33:refused 36:5xx 39:latency 46:bitflip 47:refused 49:hangup"},
	{7,
		"5:error 10:torn 12:error 14:error 18:error 20:error 21:error 22:error 23:error 24:error 27:error 28:error 32:error 34:error 39:error 41:error 43:error 49:error",
		"5:bitflip 10:5xx 12:bitflip 14:5xx 18:stall 20:bitflip 21:latency 22:hangup 23:stall 24:latency 27:hangup 28:stall 32:latency 34:5xx 39:stall 41:hangup 43:refused 49:truncate"},
	{99,
		"0:torn 5:error 8:error 9:error 11:error 19:error 23:error 24:error 26:error 31:error 35:error 39:error 40:error 45:error 47:error 48:error 49:error",
		"0:stall 5:stall 8:stall 9:bitflip 11:stall 19:stall 23:refused 24:hangup 26:5xx 31:refused 35:stall 39:stall 40:5xx 45:refused 47:refused 48:5xx 49:bitflip"},
}

// netKinds are cas.NetFaultKinds' names, in its order.
var netKinds = []string{"refused", "hangup", "latency", "stall", "truncate", "bitflip", "5xx"}

func TestScheduleGolden(t *testing.T) {
	for _, g := range golden {
		s := Schedule{Seed: g.seed, Prob: 0.3}
		var fs, wire []string
		for i, gc := range goldenCalls {
			hit, bits := s.Decide(Call{Op: Op(gc.Op), Path: gc.Path, N: gc.N})
			if !hit {
				continue
			}
			kind := "error"
			if gc.Op == "write" && bits&1 != 0 {
				kind = "torn"
			}
			fs = append(fs, fmt.Sprintf("%d:%s", i, kind))
			wire = append(wire, fmt.Sprintf("%d:%s", i, netKinds[bits%uint64(len(netKinds))]))
		}
		if got := strings.Join(fs, " "); got != g.fs {
			t.Errorf("seed %d, filesystem kinds:\n got %s\nwant %s", g.seed, got, g.fs)
		}
		if got := strings.Join(wire, " "); got != g.wire {
			t.Errorf("seed %d, wire kinds:\n got %s\nwant %s", g.seed, got, g.wire)
		}
	}
	if hit, _ := (Schedule{Seed: 1}).Decide(Call{Op: "write", Path: "f", N: 1}); hit {
		t.Error("a schedule with Prob 0 faulted a call")
	}
}

package obs

// Critical-path analysis over a build's scheduling timeline. The question
// it answers is the one counters cannot: *which chain of units bounded
// this build's wall time, and what were the other workers doing while it
// ran?*
//
// Units have no inter-unit compile dependencies at file granularity (the
// link stage is the only barrier), so the scheduled DAG is the one the
// worker pool induced: each worker runs its units sequentially, and the
// critical path is reconstructed backwards from the last-finishing unit
// through its worker's occupancy chain. The chain's self times plus its
// waits exactly tile [0, TotalNS], so TotalNS ≤ the compile phase wall
// time and ≥ the longest single unit — the invariants the tests pin.
//
// Wait taxonomy (the "why was the pool not fully busy" blame). Every job is
// ready when the compile phase starts, so a unit waits on the pool or not at
// all:
//
//   - queue wait: a unit was ready, but every worker was busy (StartNS −
//     CompileStartNS summed over the events);
//   - starvation: a worker sat idle while the phase still ran (phase wall
//     − busy, summed over workers) — the cost of a lopsided schedule.

import "sort"

// Wait causes attributed to critical-chain gaps.
const (
	// WaitQueue: the unit was ready before its worker freed up; the gap is
	// the pool dispatch latency.
	WaitQueue = "queue-wait"
	// WaitStarved: the worker was free and no job was running on it — lead-in
	// idle before the chain's first unit started.
	WaitStarved = "starvation"
)

// ChainLink is one unit on the critical path.
type ChainLink struct {
	// Unit / Worker / Outcome identify the event.
	Unit    string
	Worker  int
	Outcome string
	// StartNS / EndNS are the unit's scheduled interval (timeline clock).
	StartNS, EndNS int64
	// SelfNS is the unit's own compile time (EndNS − StartNS).
	SelfNS int64
	// WaitNS is the gap between the previous chain link's end (or the
	// compile phase start) and this unit's start.
	WaitNS int64
	// WaitCause classifies a nonzero WaitNS (Wait* constants).
	WaitCause string
}

// WorkerLoad is one worker slot's utilization of the compile phase.
type WorkerLoad struct {
	Worker int
	// Units compiled on this slot.
	Units int
	// BusyNS is time spent inside unit compiles; IdleNS is the rest of the
	// compile phase (including slots that never received a unit).
	BusyNS, IdleNS int64
	// LongestGapNS is the worker's longest single idle stretch.
	LongestGapNS int64
	// UtilizationPct is BusyNS over the compile phase wall time.
	UtilizationPct float64
}

// CritPath is the scheduling analysis of one build's timeline.
type CritPath struct {
	// Chain is the critical path, first unit first. Empty when nothing
	// compiled (a fully cached build's wall time is bounded by the cache
	// check and link, not by any unit).
	Chain []ChainLink
	// PathNS is the chain's compile time (sum of SelfNS).
	PathNS int64
	// TotalNS is the chain's end-to-end extent — waits included — measured
	// from the compile phase start: the quantity that bounds the phase's
	// wall time from below.
	TotalNS int64
	// LongestUnit / LongestUnitNS is the single slowest unit (on or off
	// the chain).
	LongestUnit   string
	LongestUnitNS int64
	// Workers is the per-slot utilization table.
	Workers []WorkerLoad
	// Wait-cause totals across the whole schedule (not just the chain).
	QueueWaitNS, StarvationNS int64
}

// Analyze reconstructs the critical path and worker-utilization blame from
// a timeline of a build with the given worker count and compile phase wall
// time (the record's Workers and CompileNS). It is deterministic: ties
// (equal end times) break on unit name, so two identical schedules analyze
// identically.
func Analyze(t *Timeline, workers int, compileNS int64) *CritPath {
	cp := &CritPath{}

	// Events grouped into per-worker lanes. Times are rebased to the compile
	// phase start so chain waits and worker gaps measure scheduling, not the
	// partition stage that precedes it; a rebased start is the unit's queue
	// wait.
	lanes := make(map[int][]UnitEvent)
	for _, e := range t.Events {
		e.StartNS = max(0, e.StartNS-t.CompileStartNS)
		e.EndNS = max(0, e.EndNS-t.CompileStartNS)
		lanes[e.Worker] = append(lanes[e.Worker], e)
		cp.QueueWaitNS += e.StartNS
		if d := e.DurNS(); d > cp.LongestUnitNS || (d == cp.LongestUnitNS && cp.LongestUnit > e.Unit) {
			cp.LongestUnit, cp.LongestUnitNS = e.Unit, d
		}
	}
	for w := range lanes {
		lane := lanes[w]
		sort.Slice(lane, func(i, j int) bool {
			if lane[i].StartNS != lane[j].StartNS {
				return lane[i].StartNS < lane[j].StartNS
			}
			return lane[i].Unit < lane[j].Unit
		})
	}

	// Per-worker utilization and idle-gap blame over the compile phase.
	// Every configured slot appears, including ones that never got a unit —
	// a fully idle slot is exactly the starvation signal worth surfacing.
	for w := 0; w < workers; w++ {
		wl := WorkerLoad{Worker: w}
		var cursor int64
		for _, e := range lanes[w] {
			wl.Units++
			wl.BusyNS += e.DurNS()
			if gap := e.StartNS - cursor; gap > wl.LongestGapNS {
				wl.LongestGapNS = gap
			}
			cursor = e.EndNS
		}
		if tail := compileNS - cursor; tail > wl.LongestGapNS {
			wl.LongestGapNS = tail
		}
		wl.IdleNS = max(0, compileNS-wl.BusyNS)
		if compileNS > 0 {
			wl.UtilizationPct = 100 * float64(wl.BusyNS) / float64(compileNS)
		}
		cp.Workers = append(cp.Workers, wl)
		cp.StarvationNS += wl.IdleNS
	}

	if len(t.Events) == 0 {
		return cp
	}

	// The critical chain: start from the event with the latest end (ties
	// break on unit name), then walk back through the worker's occupancy —
	// each predecessor is the latest event on the same worker ending at or
	// before the current start.
	last := latestEnd(lanes)
	var chain []ChainLink
	visited := make(map[string]bool)
	cur := last
	for {
		visited[cur.Unit] = true
		link := ChainLink{
			Unit: cur.Unit, Worker: cur.Worker, Outcome: cur.Outcome,
			StartNS: cur.StartNS, EndNS: cur.EndNS, SelfNS: cur.DurNS(),
		}
		pred, ok := predecessor(lanes[cur.Worker], cur, visited)
		var freeAt int64
		if ok {
			freeAt = pred.EndNS
		}
		link.WaitNS = max(0, cur.StartNS-freeAt)
		link.WaitCause = classifyWait(link.WaitNS, ok)
		chain = append(chain, link)
		if !ok {
			break
		}
		cur = pred
	}
	// Reverse into schedule order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	cp.Chain = chain
	for _, l := range chain {
		cp.PathNS += l.SelfNS
	}
	cp.TotalNS = last.EndNS
	return cp
}

// classifyWait attributes a chain gap: zero gaps have no cause; a unit on a
// worker with prior occupancy waited on dispatch (queue), and a gap before a
// worker's first unit is lead-in starvation.
func classifyWait(wait int64, hadPred bool) string {
	switch {
	case wait <= 0:
		return ""
	case hadPred:
		return WaitQueue
	default:
		return WaitStarved
	}
}

// latestEnd returns the event with the maximum EndNS, breaking
// ties on unit name for determinism.
func latestEnd(lanes map[int][]UnitEvent) UnitEvent {
	var best UnitEvent
	found := false
	for _, lane := range lanes {
		for _, e := range lane {
			if !found || e.EndNS > best.EndNS || (e.EndNS == best.EndNS && e.Unit < best.Unit) {
				best, found = e, true
			}
		}
	}
	return best
}

// predecessor finds the latest event on the lane ending at or before
// cur's start (excluding units already on the chain, which also keeps the
// walk terminating when zero-duration events share a timestamp), ties
// broken on unit name.
func predecessor(lane []UnitEvent, cur UnitEvent, visited map[string]bool) (UnitEvent, bool) {
	var best UnitEvent
	found := false
	for _, e := range lane {
		if visited[e.Unit] {
			continue
		}
		if e.EndNS > cur.StartNS {
			continue
		}
		if !found || e.EndNS > best.EndNS || (e.EndNS == best.EndNS && e.Unit < best.Unit) {
			best, found = e, true
		}
	}
	return best, found
}

package main

// The machine-speed probe.
//
// The benchmark runs on shared machines whose speed is not constant. The box
// it was written on drifts by a third over minutes and flips within that
// range in phases of one to ten seconds (a neighbour on the sibling
// hyperthread): the same build of the same inputs reads 200 ms in one hour
// and 250 ms in the next, with process CPU time moving in step. A run
// measures for twelve seconds, so it cannot average that away: ten-seed
// spreads of the raw timings were 5 to 11 % in a calm hour and 20 to 35 % in
// a rough one (results/spread.txt and spread_rough_hour.txt have raw and
// calibrated side by side from the same runs), and a driver refuses a
// benchmark whose spread passes 25 %.
//
// So every measured build is bracketed by probes: a fixed, allocation-free
// piece of standard-library work that touches nothing of the code under
// test. A build's wall and CPU time are multiplied by probeUnitMS / (the
// probe's time around that build). The probe allocates nothing, so the
// builder's heap and the collector do not reach it, and a change to the code
// under test cannot move it.
//
// What this does to the numbers. A reported millisecond is a stopwatch
// millisecond only on a machine whose probe reads probeUnitMS; elsewhere it is
// the stopwatch reading times machine_speed, and every report carries that
// speed and the raw readings beside the calibrated ones. The constant cancels
// wherever two runs are compared, which is all a bound is for. The probe is
// CPU and memory work: it follows the three workloads that compile (between
// those two hours their calibrated medians moved 2 to 4 %, their raw ones 17
// to 30 %) and knows nothing of the kernel time that is most of
// fresh_runner's CPU, whose spreads stay the widest.

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// probeUnitMS defines the unit of a calibrated millisecond: the probe takes
// this long on the machine the benchmark was written on when nothing
// disturbs it. It fixes the scale of the reported timings and nothing else.
const probeUnitMS = 2.0

const probeN = 1 << 14

// probeLane is one goroutine's share of a probe: its own buffers, so lanes
// share nothing but the machine.
type probeLane struct {
	vals   [probeN]uint64
	counts [1 << 16]uint32
	bytes  [8 * probeN]byte
	sink   byte
}

func (l *probeLane) Len() int           { return probeN }
func (l *probeLane) Less(i, j int) bool { return l.vals[i] < l.vals[j] }
func (l *probeLane) Swap(i, j int)      { l.vals[i], l.vals[j] = l.vals[j], l.vals[i] }

// work is the fixed piece of work: a pseudo-random fill, scattered counter
// updates, a sort and a hash.
func (l *probeLane) work() {
	x := uint64(88172645463325252)
	for i := range l.vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.vals[i] = x
		l.counts[x&0xffff] += uint32(i)
	}
	sort.Sort(l)
	for i, v := range l.vals {
		for b := 0; b < 8; b++ {
			l.bytes[8*i+b] = byte(v >> (8 * b))
		}
	}
	sum := sha256.Sum256(l.bytes[:])
	l.sink ^= sum[0]
}

// probeLanes has one lane per processor the builder's worker pool would
// use: a build is slowed by a neighbour on any of them.
var probeLanes = make([]probeLane, runtime.GOMAXPROCS(0))

// probe runs the fixed work on every lane at once and returns how long the
// slowest took, in ms.
func probe() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := range probeLanes {
		wg.Add(1)
		go func(l *probeLane) {
			defer wg.Done()
			l.work()
		}(&probeLanes[i])
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// probeMS is the median of three probes: what a measured build is
// bracketed with.
func probeMS() float64 {
	a, b, c := probe(), probe(), probe()
	return max(min(a, b), min(max(a, b), c))
}

// speedBetween is the machine's speed relative to nominal given the probe
// readings on either side of a piece of work.
func speedBetween(before, after float64) float64 { return 2 * probeUnitMS / (before + after) }

// nominalMS runs f between probes and returns its wall time in ms at the
// machine's nominal speed.
func nominalMS(f func()) float64 {
	before, t0 := probeMS(), time.Now()
	f()
	wall := ms(time.Since(t0))
	return wall * speedBetween(before, probeMS())
}

// Package faults is the core the fault injectors share: vfs.FaultFS at the
// filesystem seam, cas.FaultTransport at the wire, and passes.FaultHook in
// the pass pipeline. It owns what a fault plan means independently of the
// layer it lands in:
//
//   - the identity of a call: (op, canonical path, nth occurrence of that
//     pair), a key that does not depend on goroutine interleaving across
//     distinct paths, so a plan replays exactly under a worker pool;
//   - rule selection: op, path glob, Nth and Count;
//   - the seeded schedule: whether a call faults is a pure function of
//     (seed, call), so a failing chaos seed reproduces from its seed alone;
//   - the logs: every call in observation order, and the calls a fault was
//     injected into.
//
// Each injector keeps only what a fired call does in its own layer. See
// docs/ROBUSTNESS.md, "The fault core".
package faults

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
)

// Op names the kind of call an injector intercepts: a filesystem operation,
// an HTTP method, a pass run.
type Op string

// Call is one logged call. N is the 1-based occurrence index of the
// (Op, Path) pair: the replay-stable identity of the call.
type Call struct {
	Op   Op
	Path string
	N    int
}

// String renders the call as "op:path#n".
func (c Call) String() string { return fmt.Sprintf("%s:%s#%d", c.Op, c.Path, c.N) }

// Rule selects calls. Zero fields match everything: an empty Op matches
// any op, an empty Path any path. Path is a glob matched against the whole
// canonical path; a glob without a separator also matches the path's final
// element. Nth 0 selects every matching call; Nth n > 0 selects the nth
// matching call and the Count-1 after it (Count <= 0 means one), counted
// per rule.
type Rule struct {
	Op    Op
	Path  string
	Nth   int
	Count int
}

// matches reports whether r selects c, ignoring Nth and Count.
func (r *Rule) matches(c Call) bool {
	if r.Op != "" && r.Op != c.Op {
		return false
	}
	if r.Path == "" {
		return true
	}
	if ok, _ := filepath.Match(r.Path, c.Path); ok {
		return true
	}
	if strings.ContainsRune(r.Path, filepath.Separator) {
		return false
	}
	ok, _ := filepath.Match(r.Path, filepath.Base(c.Path))
	return ok
}

// window reports whether the mth matching call falls in r's Nth/Count
// window.
func (r *Rule) window(m int) bool {
	if r.Nth == 0 {
		return true
	}
	count := r.Count
	if count <= 0 {
		count = 1
	}
	return m >= r.Nth && m < r.Nth+count
}

// Schedule injects faults probabilistically but reproducibly: whether a
// call faults is a pure function of (Seed, op, path, occurrence index).
type Schedule struct {
	Seed uint64
	// Prob is the per-call injection probability in [0, 1].
	Prob float64
}

// Decide reports whether the schedule faults c and, when it does, the
// hash bits above the decision's (bit 33 up) from which the layer draws
// the fault's kind, so the kind replays with the decision.
func (s Schedule) Decide(c Call) (bool, uint64) {
	if s.Prob <= 0 {
		return false, 0
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	for i := 0; i < 8; i++ {
		mix(byte(s.Seed >> (8 * i)))
	}
	for i := 0; i < len(c.Op); i++ {
		mix(c.Op[i])
	}
	mix(0)
	for i := 0; i < len(c.Path); i++ {
		mix(c.Path[i])
	}
	mix(0)
	for i := 0; i < 8; i++ {
		mix(byte(uint64(c.N) >> (8 * i)))
	}
	if float64(h&0xFFFFFFFF)/float64(1<<32) >= s.Prob {
		return false, 0
	}
	return true, h >> 33
}

// Log numbers and records an injector's calls and selects the rule that
// fires on each. Safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	rules    []Rule
	matches  []int        // per-rule matching-call count (drives Nth/Count)
	seen     map[Call]int // (op, path) → occurrences; N zero in keys
	calls    []Call
	injected []Call
}

// NewLog returns a log that selects with rules, in order.
func NewLog(rules ...Rule) *Log {
	return &Log{rules: rules, matches: make([]int, len(rules)), seen: make(map[Call]int)}
}

// Next logs a call of op on the canonical path and returns it with the
// index of the first rule that fires on it, or -1.
func (l *Log) Next(op Op, path string) (Call, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := Call{Op: op, Path: path}
	l.seen[key]++
	c := Call{Op: op, Path: path, N: l.seen[key]}
	l.calls = append(l.calls, c)
	for i := range l.rules {
		r := &l.rules[i]
		if !r.matches(c) {
			continue
		}
		l.matches[i]++
		if r.window(l.matches[i]) {
			return c, i
		}
	}
	return c, -1
}

// Inject records that a fault was injected into c and returns how many
// calls have had one.
func (l *Log) Inject(c Call) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.injected = append(l.injected, c)
	return len(l.injected)
}

// Calls returns a copy of the call log, in observation order.
func (l *Log) Calls() []Call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Call(nil), l.calls...)
}

// Injected returns the calls that had a fault injected, in order.
func (l *Log) Injected() []Call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Call(nil), l.injected...)
}

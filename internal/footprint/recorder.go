package footprint

import "sync"

// Trace accumulates one unit's footprint during its compile. It is safe
// for concurrent use: the compile may record from several goroutines, and
// the same (kind, name) observed more than once — a symbol referenced from
// two call sites — is recorded exactly once (first observation wins), so
// shared reads are never double-counted.
type Trace struct {
	unit string

	mu      sync.Mutex
	entries map[entryKey]uint64
}

type entryKey struct {
	kind Kind
	name string
}

// NewTrace starts an empty footprint trace for one unit's compile.
func NewTrace(unit string) *Trace {
	return &Trace{unit: unit, entries: make(map[entryKey]uint64)}
}

// Unit returns the unit this trace records.
func (t *Trace) Unit() string { return t.unit }

// Add records one dependency observation. The first hash recorded for a
// (kind, name) pair sticks; later observations of the same pair are
// ignored (the compile read whatever it read first).
func (t *Trace) Add(kind Kind, name string, hash uint64) {
	t.mu.Lock()
	k := entryKey{kind, name}
	if _, ok := t.entries[k]; !ok {
		t.entries[k] = hash
	}
	t.mu.Unlock()
}

// AddSource records the unit's own source bytes (invalidating).
func (t *Trace) AddSource(unit string, src []byte) {
	t.Add(KindSource, unit, HashBytes(src))
}

// AddPipeline records the pass-pipeline configuration (invalidating).
func (t *Trace) AddPipeline(pipeline []string) {
	t.Add(KindPipeline, "pipeline", HashStrings(pipeline))
}

// Len returns the number of distinct entries recorded so far.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Finish snapshots the trace into a canonical Record stamped with the
// declared-channel hash observed for the compiled source. The trace stays
// usable (a later Finish sees any entries added in between).
func (t *Trace) Finish(declaredHash uint64) *Record {
	t.mu.Lock()
	rec := &Record{DeclaredHash: declaredHash, Entries: make([]Entry, 0, len(t.entries))}
	for k, h := range t.entries {
		rec.Entries = append(rec.Entries, Entry{Kind: k.kind, Name: k.name, Hash: h})
	}
	t.mu.Unlock()
	rec.Canon()
	return rec
}

package footprint

import (
	"io"
	"io/fs"
	"sync"

	"statefulcc/internal/vfs"
)

// Trace accumulates one unit's footprint during its compile. It is safe
// for concurrent use: the worker pool may hand the recording FS to code
// that reads from several goroutines, and the same (kind, name) observed
// more than once — a shared file read twice, a symbol referenced from two
// call sites — is recorded exactly once (first observation wins), so
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

// FS wraps a filesystem so every successful read lands in the trace as an
// advisory entry: Open records the bytes actually read from the handle
// (hashed incrementally, charged at Close or EOF), Stat records size and
// mtime, ReadDir records the entry-name listing. Writes and failed calls
// pass through unrecorded — the footprint is what the compile *read*.
func (t *Trace) FS(inner vfs.FS) vfs.FS {
	return &traceFS{inner: vfs.Default(inner), t: t}
}

type traceFS struct {
	inner vfs.FS
	t     *Trace
}

func (f *traceFS) Open(name string) (vfs.File, error) {
	h, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: h, t: f.t, path: name, hash: fnvOffset}, nil
}

// Create, OpenFile, and CreateTemp are write-side: pass through, and so do
// a read handle's Write, Seek and Truncate (traceFile embeds the File).
func (f *traceFS) Create(name string) (vfs.File, error) { return f.inner.Create(name) }

func (f *traceFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return f.inner.OpenFile(name, flag, perm)
}

func (f *traceFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return f.inner.CreateTemp(dir, pattern)
}

func (f *traceFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *traceFS) Remove(name string) error             { return f.inner.Remove(name) }

func (f *traceFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *traceFS) ReadDir(name string) ([]fs.DirEntry, error) {
	des, err := f.inner.ReadDir(name)
	if err != nil {
		return nil, err
	}
	h := uint64(fnvOffset)
	for _, de := range des { // os.ReadDir returns sorted entries
		h ^= HashString(de.Name())
		h *= fnvPrime
	}
	h ^= uint64(len(des))
	h *= fnvPrime
	f.t.Add(KindDir, name, h)
	return des, nil
}

func (f *traceFS) Stat(name string) (fs.FileInfo, error) {
	fi, err := f.inner.Stat(name)
	if err != nil {
		return nil, err
	}
	f.t.Add(KindStat, name, HashUint64(uint64(fi.Size()), uint64(fi.ModTime().UnixNano())))
	return fi, nil
}

// traceFile hashes bytes as they are read and charges one KindFile entry
// for the whole handle when reading finishes (EOF or Close). The hash
// covers exactly the bytes the compile consumed, in order.
type traceFile struct {
	vfs.File
	t    *Trace
	path string

	mu       sync.Mutex
	hash     uint64
	n        int
	recorded bool
}

func (f *traceFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.mu.Lock()
	for _, c := range p[:n] {
		f.hash ^= uint64(c)
		f.hash *= fnvPrime
	}
	f.n += n
	if err == io.EOF {
		f.recordLocked()
	}
	f.mu.Unlock()
	return n, err
}

func (f *traceFile) Close() error {
	f.mu.Lock()
	f.recordLocked()
	f.mu.Unlock()
	return f.File.Close()
}

// recordLocked charges the entry once per handle; callers hold f.mu.
func (f *traceFile) recordLocked() {
	if f.recorded {
		return
	}
	f.recorded = true
	h := f.hash
	h ^= uint64(f.n)
	h *= fnvPrime
	f.t.Add(KindFile, f.path, h)
}

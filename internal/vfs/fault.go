package vfs

// FaultFS: the deterministic fault injector at the filesystem seam. It
// wraps any FS, records every operation in a call log, and injects failures
// according to explicit rules and/or a seeded probabilistic schedule. The
// call identity, rule selection, schedule and logs are internal/faults';
// this file holds what a fired fault does to a filesystem operation.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"statefulcc/internal/faults"
)

// ErrInjected is the base error of every injected (non-crash) fault.
var ErrInjected = errors.New("vfs: injected fault")

// ErrCrashed is returned by every operation after a crash fault fires —
// the filesystem behaves as if the process lost its disk mid-run.
var ErrCrashed = errors.New("vfs: crashed by fault injection")

// Fault selects how a firing rule fails the operation.
type Fault int

const (
	// FaultError fails the operation with ErrInjected (or Rule.Err).
	FaultError Fault = iota
	// FaultTorn, on a write, writes only half the buffer before failing —
	// a torn/short write; on a read, fills only half the buffer before
	// failing. On any other op it behaves like FaultError.
	FaultTorn
	// FaultCrash fails the operation and every subsequent operation on
	// this FaultFS (and all files opened through it) with ErrCrashed.
	FaultCrash
	// FaultLost, on the Close of a file opened for writing, is a power loss
	// just after it: the close succeeds, the file's name and size reached
	// the disk and its new data did not — its bytes are left as Rule.Damage
	// says — and, as after FaultCrash, every later operation fails with
	// ErrCrashed. On any other op, a rename included, it is FaultCrash.
	FaultLost
)

// String names the fault kind for logs and subtest labels.
func (k Fault) String() string {
	switch k {
	case FaultError:
		return "error"
	case FaultTorn:
		return "torn"
	case FaultCrash:
		return "crash"
	case FaultLost:
		return "lost"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Damage is what a FaultLost close leaves of the file's bytes.
type Damage int

const (
	// DamageZeroed keeps the length and zeroes every byte: the file's size
	// reached the disk, its data blocks did not.
	DamageZeroed Damage = iota
	// DamageTruncated keeps only the first Rule.At bytes.
	DamageTruncated
	// DamageFlipped inverts the byte at Rule.At (modulo the length).
	DamageFlipped
)

// String names the damage for subtest labels.
func (d Damage) String() string {
	switch d {
	case DamageZeroed:
		return "zeroed"
	case DamageTruncated:
		return "truncated"
	case DamageFlipped:
		return "flipped"
	}
	return fmt.Sprintf("damage(%d)", int(d))
}

// Rule selects calls to fail, as a faults.Rule with its Count unset does:
// zero fields match everything, Path is a glob matched against the
// canonical path (and, without a separator, its base), and Nth n > 0
// fires only on the nth matching call, counted per rule.
type Rule struct {
	Op   Op
	Path string
	Nth  int
	Kind Fault
	Err  error // error to inject; nil defaults to ErrInjected
	// Damage and At say what a FaultLost close leaves of the file.
	Damage Damage
	At     int
}

// Schedule is a seeded faults.Schedule over the filesystem's calls.
type Schedule struct {
	Seed uint64
	// Prob is the per-call injection probability in [0, 1].
	Prob float64
	// Torn additionally turns half the injected write faults into torn
	// writes (decided by the same hash, so still reproducible).
	Torn bool
}

// FaultFS wraps an FS with call logging and deterministic fault
// injection. With no rules and no schedule it is a pure recorder — the
// chaos harness uses that mode to enumerate the fault-point space. Safe
// for concurrent use.
type FaultFS struct {
	*faults.Log
	inner FS
	canon func(string) string
	rules []Rule
	sched faults.Schedule
	torn  bool

	mu      sync.Mutex
	crashed bool
	read    map[string]int64 // canonical path → bytes its reads returned
}

// Option configures a FaultFS.
type Option func(*FaultFS)

// WithCanon sets the path canonicalizer applied before rule matching and
// logging. The chaos harness uses it to strip test-temp roots and fold
// randomized temp-file names into their patterns, making call identities
// stable across runs. Must be idempotent; nil means identity.
func WithCanon(f func(string) string) Option {
	return func(ffs *FaultFS) { ffs.canon = f }
}

// WithRules installs explicit fault rules.
func WithRules(rules ...Rule) Option {
	return func(ffs *FaultFS) { ffs.rules = append(ffs.rules, rules...) }
}

// WithSchedule installs a seeded probabilistic schedule.
func WithSchedule(s *Schedule) Option {
	return func(ffs *FaultFS) { ffs.sched, ffs.torn = faults.Schedule{Seed: s.Seed, Prob: s.Prob}, s.Torn }
}

// NewFaultFS wraps inner.
func NewFaultFS(inner FS, opts ...Option) *FaultFS {
	ffs := &FaultFS{inner: inner, read: make(map[string]int64)}
	for _, o := range opts {
		o(ffs)
	}
	sel := make([]faults.Rule, len(ffs.rules))
	for i, r := range ffs.rules {
		sel[i] = faults.Rule{Op: r.Op, Path: r.Path, Nth: r.Nth}
	}
	ffs.Log = faults.NewLog(sel...)
	return ffs
}

// BytesRead returns how many bytes the reads logged under the canonical path
// have returned: what a caller took out of the file, beside how often it
// asked (Calls).
func (f *FaultFS) BytesRead(path string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.read[path]
}

// Crashed reports whether a crash fault has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// begin logs one operation and decides its fate: a nil error means the
// operation proceeds to the wrapped FS; the fired rule is meaningful only
// when err is non-nil (FaultTorn lets the caller perform a partial write,
// FaultLost a close that loses the file's data).
func (f *FaultFS) begin(op Op, path string) (Rule, error) {
	if f.canon != nil {
		path = f.canon(path)
	}
	call, i := f.Next(op, path)
	f.mu.Lock()
	defer f.mu.Unlock()
	var r Rule
	switch {
	case f.crashed:
		r.Kind = FaultCrash
	case i >= 0:
		r = f.rules[i]
	default:
		hit, bits := f.sched.Decide(call)
		if !hit {
			return Rule{}, nil
		}
		if f.torn && op == OpWrite && bits&1 != 0 {
			r.Kind = FaultTorn
		}
	}
	f.Inject(call)
	if r.Kind == FaultCrash || r.Kind == FaultLost {
		f.crashed = true
		return r, fmt.Errorf("%s %s: %w", op, path, ErrCrashed)
	}
	base := r.Err
	if base == nil {
		base = ErrInjected
	}
	return r, fmt.Errorf("%s %s: %w", op, path, base)
}

// --- FS implementation --------------------------------------------------------

func (f *FaultFS) Open(name string) (File, error) {
	if _, err := f.begin(OpOpen, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: name}, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if _, err := f.begin(OpCreate, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: name, writer: true}, nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if _, err := f.begin(OpOpenFile, name); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: name, writer: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	// The call is identified by dir/pattern — the randomized generated
	// name could never replay.
	if _, err := f.begin(OpCreateTemp, filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: inner.Name(), writer: true}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	// Identified by the destination: the source is usually a randomized
	// temp name.
	if _, err := f.begin(OpRename, newpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// lose rewrites the file at path, past the injector, as a FaultLost rule's
// damage leaves it.
func (f *FaultFS) lose(path string, r Rule) error {
	in, err := f.inner.Open(path)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(in)
	in.Close()
	if err != nil {
		return err
	}
	switch r.Damage {
	case DamageZeroed:
		data = make([]byte, len(data))
	case DamageTruncated:
		data = data[:min(r.At, len(data))]
	case DamageFlipped:
		if len(data) > 0 {
			data[r.At%len(data)] ^= 0xFF
		}
	}
	out, err := f.inner.Create(path)
	if err != nil {
		return err
	}
	if _, err := out.Write(data); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.begin(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if _, err := f.begin(OpMkdirAll, path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if _, err := f.begin(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if _, err := f.begin(OpStat, name); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

// faultFile routes handle-level ops back through the injector. It keeps
// the raw path; canonicalization happens in begin, so a temp file's ops
// fold into its pattern class.
type faultFile struct {
	fs     *FaultFS
	inner  File
	path   string
	writer bool // opened for writing: a FaultLost close damages it
}

func (f *faultFile) Name() string { return f.inner.Name() }

func (f *faultFile) Read(p []byte) (n int, err error) {
	defer func() { f.fs.countRead(f.path, n) }()
	r, err := f.fs.begin(OpRead, f.path)
	if err != nil {
		if r.Kind == FaultTorn && len(p) > 0 {
			// Torn read: half the buffer fills, then the failure.
			n, rerr := f.inner.Read(p[:len(p)/2])
			if rerr != nil {
				return n, rerr
			}
			return n, err
		}
		return 0, err
	}
	return f.inner.Read(p)
}

// Seek is not a fault point of its own: a position is only ever taken for
// the Read that follows, and that one is.
func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	return f.inner.Seek(offset, whence)
}

func (f *FaultFS) countRead(path string, n int) {
	if f.canon != nil {
		path = f.canon(path)
	}
	f.mu.Lock()
	f.read[path] += int64(n)
	f.mu.Unlock()
}

func (f *faultFile) Write(p []byte) (int, error) {
	r, err := f.fs.begin(OpWrite, f.path)
	if err != nil {
		if r.Kind == FaultTorn && len(p) > 0 {
			// Torn write: half the buffer lands, then the failure.
			n, werr := f.inner.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.begin(OpSync, f.path); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.begin(OpTruncate, f.path); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Close() error {
	r, err := f.fs.begin(OpClose, f.path)
	// The underlying handle is released whatever fired, or fault walks
	// leak descriptors.
	cerr := f.inner.Close()
	switch {
	case err == nil:
		return cerr
	case r.Kind != FaultLost || !f.writer || cerr != nil:
		return err
	}
	// The power loss: the caller sees its close succeed, and what it wrote
	// reads back damaged.
	return f.fs.lose(f.path, r)
}

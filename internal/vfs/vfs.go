// Package vfs is the filesystem seam under every state-touching layer of
// the build stack (internal/state, internal/history, internal/buildsys).
// Production code uses OS, a thin passthrough to the os package; tests
// wrap it in a FaultFS that injects I/O failures deterministically —
// per-op, per-path-glob, nth-call, torn writes, and full "crash here"
// stops — so the degradation guarantee ("a state-layer fault costs at
// most a cold build, never a wrong or failed one") can be proven at every
// fault point instead of asserted in comments. See docs/ROBUSTNESS.md.
//
// The interface is intentionally small: exactly the operations the state,
// history, and build layers perform, nothing speculative. Everything is
// safe for concurrent use when the wrapped filesystem is.
package vfs

import (
	"io"
	"io/fs"
	"os"

	"statefulcc/internal/faults"
)

// Op names one injectable filesystem operation. Fault rules select on it;
// the FaultFS call log records it.
type Op = faults.Op

// The complete operation vocabulary. Directory-level ops come from FS,
// handle-level ops (OpRead..OpTruncate) from File.
const (
	OpOpen       Op = "open"
	OpCreate     Op = "create"
	OpOpenFile   Op = "openfile"
	OpCreateTemp Op = "createtemp"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpMkdirAll   Op = "mkdirall"
	OpReadDir    Op = "readdir"
	OpStat       Op = "stat"

	OpRead     Op = "read"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpTruncate Op = "truncate"
)

// Ops lists every injectable operation, in a fixed order (used by the
// chaos harness to reason about fault-space coverage).
var Ops = []Op{
	OpOpen, OpCreate, OpOpenFile, OpCreateTemp, OpRename, OpRemove,
	OpMkdirAll, OpReadDir, OpStat, OpRead, OpWrite, OpSync, OpClose, OpTruncate,
}

// File is an open file handle: the subset of *os.File the state-touching
// layers use.
type File interface {
	io.Reader
	io.Writer
	// Seek positions the next Read: the flight recorder reads a file's end
	// without reading what is before it.
	io.Seeker
	// Truncate sets the file's size: a state save that overwrote a longer
	// file cuts the old tail.
	Truncate(size int64) error
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
	// Name returns the path the handle was opened with (for CreateTemp,
	// the generated temp path).
	Name() string
}

// FS is the filesystem interface. All paths are host paths, as with the
// os package.
type FS interface {
	// Open opens a file for reading.
	Open(name string) (File, error)
	// Create truncates or creates a file for writing.
	Create(name string) (File, error)
	// OpenFile is the generalized open (O_APPEND writers, and the state
	// save's O_WRONLY overwrite in place).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a uniquely named file in dir from pattern.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
}

// OS is the passthrough filesystem every call site defaults to.
var OS FS = osFS{}

// Default normalizes a possibly-nil FS option to OS.
func Default(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// osFS implements FS directly on the os package.
type osFS struct{}

func (osFS) Open(name string) (File, error)   { return fixNil(os.Open(name)) }
func (osFS) Create(name string) (File, error) { return fixNil(os.Create(name)) }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return fixNil(os.OpenFile(name, flag, perm))
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return fixNil(os.CreateTemp(dir, pattern))
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

// fixNil keeps a failed open from producing a non-nil File interface
// wrapping a nil *os.File.
func fixNil(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

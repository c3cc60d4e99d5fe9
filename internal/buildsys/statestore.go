package buildsys

// Persistent per-unit dormancy state. Each unit's records live in their
// own file under Options.StateDir, named from a sanitized unit name plus a
// hash of the full name (unit names contain path separators and may
// collide after sanitizing). The state is a pure optimization, so a state
// file only has to be valid or detectably invalid: loads that fail for any
// reason — missing file, truncation, corruption, checksum or version
// mismatch, injected I/O fault — yield a cold start, and save failures are
// reported as warnings and state.io_error counts rather than failing the
// build. internal/state compares a file before saving it and writes a
// changed or missing one in place, without a temp file, rename or fsync: a
// save that fails or crashes part way, or a power loss after it, leaves the
// old bytes, the new ones, or a file whose checksum fails, which the next
// load turns into a cold unit. The chaos suite (chaos_test.go) walks every
// fault point on this path, the power loss after every state save's close
// included, and proves the degradation is graceful.
//
// Under the Replay bit each unit's segment memo is persisted the same way,
// in a memo file beside its state file (MemoPath, internal/state's memo
// file): loaded with the state, saved after it, dropped with it. A memo
// file that does not load makes its unit replay nothing.

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/state"
)

// stateSuffix is the per-unit state file extension, memoSuffix the memo
// file's.
const (
	stateSuffix = ".state"
	memoSuffix  = ".memo"
)

// statePath maps a unit name to its state file path ("" without StateDir).
func (b *Builder) statePath(unit string) string {
	if b.opts.StateDir == "" {
		return ""
	}
	return StatePath(b.opts.StateDir, unit)
}

// StatePath is the file a Builder with state directory stateDir keeps the
// named unit's dormancy state in.
func StatePath(stateDir, unit string) string {
	var sb strings.Builder
	for _, r := range unit {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	name := fmt16(contentHash([]byte(unit)))
	return filepath.Join(stateDir, sb.String()+"-"+name+stateSuffix)
}

// MemoPath is the file a Builder with state directory stateDir keeps the
// named unit's segment memo in: StatePath's, with the memo suffix.
func MemoPath(stateDir, unit string) string {
	return strings.TrimSuffix(StatePath(stateDir, unit), stateSuffix) + memoSuffix
}

// persistsMemo reports whether the builder keeps memo files: its policy
// replays and it has a state directory.
func (b *Builder) persistsMemo() bool {
	return b.opts.Mode&core.Replay != 0 && b.opts.StateDir != ""
}

// fmt16 renders a hash as fixed-width lowercase hex without pulling fmt
// into the hot path.
func fmt16(v uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[v&0xF]
		v >>= 4
	}
	return string(buf[:])
}

// loadUnitState reads a unit's persisted state, and its memo under
// Replay, through b.fs; any failure is a cold start, never an error. Real failures (as opposed to a simply
// missing file) additionally count as state.io_error and warn, so degraded
// disks are visible. Called concurrently from worker goroutines; the
// counters and warning list are synchronized. The load never goes through
// a unit's footprint-recording wrapper: the state is an input to the
// optimizer, not to the output, so it is no dependency of the unit.
func (b *Builder) loadUnitState(unit string) *core.UnitState {
	path := b.statePath(unit)
	if path == "" {
		return nil
	}
	var st *core.UnitState
	if !b.keepsRecords() {
		// There is no state file: the memo rides a new state.
		st = core.NewUnitState(unit, b.opts.Pipeline)
	} else {
		var err error
		st, err = state.LoadFS(b.fs, path)
		if err != nil {
			b.ctr.stateIOErrors.Inc()
			b.warnf("state: load %s: %v (running cold)", filepath.Base(path), err)
		}
		if err != nil || st == nil {
			b.ctr.stateLoadMisses.Inc()
			return nil
		}
		b.ctr.stateLoads.Inc()
	}
	// The memo goes with the state: none for a state the driver drops
	// (another pipeline) or a unit the stateless fallback compiles.
	if !b.persistsMemo() || !st.Compatible(b.opts.Pipeline) || st.Quarantine.Whole() {
		return st
	}
	mpath := MemoPath(b.opts.StateDir, unit)
	loaded, err := state.LoadMemoFS(b.fs, mpath, st)
	switch {
	case errors.Is(err, state.ErrOtherCompiler):
		// Every memo file after a compiler rebuild: no fault to warn of.
		b.ctr.memoRejected.Inc()
	case err != nil:
		b.ctr.memoRejected.Inc()
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: load %s: %v (replaying nothing)", filepath.Base(mpath), err)
	case loaded:
		b.ctr.memoLoads.Inc()
	case !b.keepsRecords():
		return nil
	}
	return st
}

// memoFlushInterval is how far the memo files of a builder's recompiled
// units may lag behind its memory. A unit's memo file is read only by
// another builder, so a resident builder does not rewrite it on every
// recompile: it marks the unit, and the first build that ends this long
// after the builder's last flush (or its start) writes the marked units'
// memos (flushMemos). A lagging file is still sound, its keys exact; the
// next process replays less of what changed meanwhile.
var memoFlushInterval = time.Second

// saveUnitMemo persists the memo of a unit's state, as saveUnitState its
// records: write-if-changed, and a failure is a warning. A state without a
// memo leaves the file as it is: an older memo is still sound, its keys
// exact.
func (b *Builder) saveUnitMemo(unit string, st *core.UnitState) {
	if !b.persistsMemo() {
		return
	}
	enc := state.MarshalMemo(st)
	if enc == nil {
		return
	}
	path := MemoPath(b.opts.StateDir, unit)
	wrote, err := state.WriteChangedFS(b.fs, path, enc)
	switch {
	case err != nil:
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: save %s: %v (memo not persisted)", filepath.Base(path), err)
	case wrote:
		b.ctr.memoSaves.Inc()
		b.ctr.memoBytesWritten.Add(int64(len(enc)))
	default:
		b.ctr.memoSaveUnchanged.Inc()
	}
}

// flushMemos saves the memos of the units recompiled since their memo file
// was last written, in unit order, once memoFlushInterval has passed since
// the last flush.
func (b *Builder) flushMemos(units []string) {
	if !b.persistsMemo() || time.Since(b.memoFlushed) < memoFlushInterval {
		return
	}
	b.memoFlushed = time.Now()
	for _, name := range units {
		if e := b.units[name]; e != nil && e.memoDirty {
			e.memoDirty = false
			b.saveUnitMemo(name, e.state)
		}
	}
}

// saveUnitState encodes a unit's state once, persists it when there is a
// state directory, and returns the encoding: its length is the unit's share
// of Report.StateBytes, with or without a directory. Failures degrade to a
// warning and a state.io_error count (state is advisory, and a file a save
// left damaged fails its next load). A save whose bytes are already on disk
// writes nothing and counts as state.save_unchanged instead of state.saves;
// one that writes adds its bytes to state.bytes_written. It goes through
// b.fs, never a unit's footprint-recording wrapper: the compare-read is the
// builder's bookkeeping, not a dependency of the unit.
func (b *Builder) saveUnitState(unit string, st *core.UnitState) []byte {
	enc := state.Marshal(st)
	path := b.statePath(unit)
	if path == "" {
		return enc
	}
	wrote, err := state.WriteChangedFS(b.fs, path, enc)
	switch {
	case err != nil:
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: save %s: %v (state not persisted)", filepath.Base(path), err)
	case wrote:
		b.ctr.stateSaves.Inc()
		b.ctr.stateBytesWritten.Add(int64(len(enc)))
	default:
		b.ctr.stateSaveUnchanged.Inc()
	}
	return enc
}

// stateTempPattern is the glob of the temp files state saves created and
// renamed before every save wrote its file in place. A builder of that
// time that crashed between the two orphaned one, which a directory may
// still hold.
const stateTempPattern = ".state-*"

// sweepStateTemp removes orphaned temp files from StateDir: the history
// repair's and the ones older builders' state saves left (stateTempPattern).
// A process that crashes between temp creation and rename leaves one
// behind; they are never read back, so a new builder (the directory's
// single writer) deletes them at startup. Failures only count — the state
// directory may not even exist yet.
func (b *Builder) sweepStateTemp() {
	if b.opts.StateDir == "" {
		return
	}
	entries, err := b.fs.ReadDir(b.opts.StateDir)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			b.ctr.stateIOErrors.Inc()
		}
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		stateTemp, _ := filepath.Match(stateTempPattern, e.Name())
		histTemp, _ := filepath.Match(history.TempPattern, e.Name())
		if !stateTemp && !histTemp {
			continue
		}
		if err := b.fs.Remove(filepath.Join(b.opts.StateDir, e.Name())); err != nil {
			b.ctr.stateIOErrors.Inc()
		}
	}
}

// removeUnitState deletes a removed unit's state and memo files so
// StateDir tracks the live project.
func (b *Builder) removeUnitState(unit string) {
	path := b.statePath(unit)
	if path == "" {
		return
	}
	b.removeFile(path)
	b.removeUnitMemo(unit)
}

// removeUnitMemo deletes a unit's memo file: its state was dropped.
func (b *Builder) removeUnitMemo(unit string) {
	if b.persistsMemo() {
		b.removeFile(MemoPath(b.opts.StateDir, unit))
	}
}

// removeFile removes a file of StateDir; a missing one is no failure.
func (b *Builder) removeFile(path string) {
	if err := b.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: remove %s: %v (stale state file left behind)", filepath.Base(path), err)
	}
}

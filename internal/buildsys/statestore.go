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

import (
	"errors"
	"io/fs"
	"path/filepath"
	"strings"

	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/state"
)

// stateSuffix is the per-unit state file extension.
const stateSuffix = ".state"

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

// loadUnitState reads a unit's persisted state through b.fs; any failure
// is a cold start, never an error. Real failures (as opposed to a simply
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
	st, err := state.LoadFS(b.fs, path)
	if err != nil {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: load %s: %v (running cold)", filepath.Base(path), err)
	}
	if err != nil || st == nil {
		b.ctr.stateLoadMisses.Inc()
		return nil
	}
	b.ctr.stateLoads.Inc()
	return st
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

// removeUnitState deletes a removed unit's state file so StateDir tracks
// the live project.
func (b *Builder) removeUnitState(unit string) {
	path := b.statePath(unit)
	if path == "" {
		return
	}
	if err := b.fs.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		b.ctr.stateIOErrors.Inc()
		b.warnf("state: remove %s: %v (stale state file left behind)", filepath.Base(path), err)
	}
}

package state_test

// State-layer chaos suite: walk every injectable I/O fault point of a
// Save-over-existing-state + Save-again + Load workload and prove the
// write-if-changed and atomic-write contracts under all of them — the
// published state file only ever holds the complete old bytes or the
// complete new bytes (a faulted save never publishes a torn file), a save
// that reports success has the new bytes on disk and is elided only when
// they already were, and the loader either returns one of the two valid
// states or an error the callers treat as a cold start. The fault
// points come from recording a clean run, not from a hand-kept list.
//
// A save does not fsync, so a power loss can land its rename without its
// data: the power-loss walk damages the renamed file every way that can
// happen and proves the load rejects it (a cold unit) and the next save
// rewrites it.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/state"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vfs"
	"statefulcc/internal/vfs/chaostest"
)

// buildStateFrom compiles src into a populated dormancy state.
func buildStateFrom(t *testing.T, src string) *core.UnitState {
	t.Helper()
	d, err := core.NewDriver(core.Options{Policy: core.Stateful})
	if err != nil {
		t.Fatal(err)
	}
	m, err := testutil.BuildModule("unit.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := d.Run(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// chaosStates builds two distinct valid states plus their canonical
// encodings.
func chaosStates(t *testing.T) (stOld, stNew *core.UnitState, encOld, encNew []byte) {
	t.Helper()
	stOld = buildStateFrom(t, `func main() int { return 1; }`)
	stNew = buildStateFrom(t, `
func helper(x int) int { return x + 3; }
func main() int { return helper(4); }`)
	var a, b bytes.Buffer
	if err := state.Encode(&a, stOld); err != nil {
		t.Fatal(err)
	}
	if err := state.Encode(&b, stNew); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("test states encode identically; chaos invariant would be vacuous")
	}
	return stOld, stNew, a.Bytes(), b.Bytes()
}

// TestSaveNeverSyncs pins the durability contract: a state file only has
// to be valid or detectably invalid, so a save issues no fsync, and the
// rename that publishes the file is its last call.
func TestSaveNeverSyncs(t *testing.T) {
	st := buildStateFrom(t, `func main() int { return 7; }`)
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir, state.TempPattern)))
	if err := state.SaveFS(ffs, filepath.Join(dir, "unit.state"), st); err != nil {
		t.Fatal(err)
	}
	calls := ffs.Calls()
	for _, c := range calls {
		if c.Op == vfs.OpSync {
			t.Fatalf("save issued %v; a state save never syncs", c)
		}
	}
	if last := calls[len(calls)-1]; last != (vfs.Call{Op: vfs.OpRename, Path: "unit.state", N: 1}) {
		t.Fatalf("save's last call is %v, want the rename over unit.state: %v", last, calls)
	}
}

// saveStep is one SaveChangedFS call of the chaos workload with the
// published file's bytes read (past the fault injector) before and after.
type saveStep struct {
	before, after []byte
	wrote         bool
	err           error
}

// TestChaosSaveLoad is the fault-point walk.
func TestChaosSaveLoad(t *testing.T) {
	stOld, stNew, encOld, encNew := chaosStates(t)

	// The workload under test: overwrite existing state (the compare sees
	// different bytes and must write), save the same state again (the
	// compare sees equal bytes and elides), then read it back. Saves may
	// fail under fault: that is the point.
	workload := func(t *testing.T, fsys vfs.FS, path string) (steps [2]saveStep) {
		t.Helper()
		disk := func() []byte {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("state file vanished under a save fault: %v", err)
			}
			return raw
		}
		for i := range steps {
			s := &steps[i]
			s.before = disk()
			s.wrote, s.err = state.SaveChangedFS(fsys, path, stNew)
			s.after = disk()
		}
		_, _ = state.LoadFS(fsys, path)
		return steps
	}
	seed := func(t *testing.T, path string) {
		t.Helper()
		if err := state.SaveFS(nil, path, stOld); err != nil {
			t.Fatal(err)
		}
	}

	// Record a clean run to enumerate the fault points.
	recDir := t.TempDir()
	recPath := filepath.Join(recDir, "unit.state")
	seed(t, recPath)
	rec := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(recDir, state.TempPattern)))
	clean := workload(t, rec, recPath)
	if !clean[0].wrote || clean[1].wrote || clean[0].err != nil || clean[1].err != nil {
		t.Fatalf("clean run: want a write then an elision, got wrote=%v/%v err=%v/%v",
			clean[0].wrote, clean[1].wrote, clean[0].err, clean[1].err)
	}
	// 17 points: the compares' 3 opens, 6 reads and 3 closes, then
	// mkdirall, createtemp, write, close and rename of the one write.
	points := chaostest.Points(rec.Calls())
	if len(points) < 17 {
		t.Fatalf("recorded only %d fault points; the seam has shrunk: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpCreateTemp, vfs.OpWrite, vfs.OpClose, vfs.OpRename, vfs.OpOpen, vfs.OpRead} {
		if cov[op] == 0 {
			t.Fatalf("workload never performs %s; recording is not covering the save/load path (%v)", op, cov)
		}
	}
	// Three opens of the published file: both saves' compares and the load.
	if n := len(callsOn(points, vfs.OpOpen, "unit.state")); n != 3 {
		t.Fatalf("recorded %d opens of the state file, want 3 (two compares + load): %v", n, points)
	}

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite || p.Op == vfs.OpRead {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "unit.state")
				seed(t, path)
				ffs := vfs.NewFaultFS(vfs.OS,
					vfs.WithCanon(chaostest.Canon(dir, state.TempPattern)),
					vfs.WithRules(chaostest.RuleFor(p, kind)))
				steps := workload(t, ffs, path)
				chaostest.AssertFired(t, ffs, p)

				for i, s := range steps {
					// Invariant 1: the published file is exactly the old or the
					// new encoding — an atomic writer never leaves a third thing.
					isOld, isNew := bytes.Equal(s.after, encOld), bytes.Equal(s.after, encNew)
					if !isOld && !isNew {
						t.Fatalf("save %d: state file holds %d bytes that are neither the old nor the new encoding", i, len(s.after))
					}
					// Invariant 2: a save lands or returns an error, and is
					// elided only when the disk already held the new bytes.
					if s.err == nil && !isNew {
						t.Fatalf("save %d reported success but the old state is still published", i)
					}
					if s.err == nil && !s.wrote && !bytes.Equal(s.before, encNew) {
						t.Fatalf("save %d was elided while the disk differed from the new encoding", i)
					}
					if s.err != nil && s.wrote {
						t.Fatalf("save %d reported both a write and an error: %v", i, s.err)
					}
				}
				// A failed save cleans up its temp file (a crash cannot: the
				// builder's start-up sweep owns those).
				if kind != vfs.FaultCrash {
					if left, _ := filepath.Glob(filepath.Join(dir, state.TempPattern)); len(left) != 0 {
						t.Fatalf("failed save left temp files behind: %v", left)
					}
				}

				// Invariant 3: a clean load returns the matching valid state.
				got, err := state.LoadFS(nil, path)
				if err != nil || got == nil {
					t.Fatalf("clean load of intact file failed: %v", err)
				}
				want := stOld
				if bytes.Equal(steps[1].after, encNew) {
					want = stNew
				}
				if got.Unit != want.Unit || got.RecordCount() != want.RecordCount() {
					t.Fatalf("loaded state does not match the on-disk encoding's source state")
				}

				// Invariant 4: recovery — the next clean save fully heals.
				if err := state.SaveFS(nil, path, stNew); err != nil {
					t.Fatalf("clean save after fault failed: %v", err)
				}
				raw, err := os.ReadFile(path)
				if err != nil || !bytes.Equal(raw, encNew) {
					t.Fatalf("recovery save did not publish the new state: %v", err)
				}
			})
		}
	}
}

// TestChaosPowerLoss is the power-loss walk: the rename of a save lands
// but its data does not, in each of the ways vfs.FaultLost damages a file.
// The save reports success (the process never learns), the next load —
// after the "reboot" — must reject the file rather than decode it, and the
// next save must find the disk different and rewrite it whole.
func TestChaosPowerLoss(t *testing.T) {
	stOld, stNew, encOld, encNew := chaosStates(t)
	seed := func(t *testing.T, path string) {
		t.Helper()
		if err := state.SaveFS(nil, path, stOld); err != nil {
			t.Fatal(err)
		}
	}
	recDir := t.TempDir()
	recPath := filepath.Join(recDir, "unit.state")
	seed(t, recPath)
	rec := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(recDir, state.TempPattern)))
	if _, err := state.SaveChangedFS(rec, recPath, stNew); err != nil {
		t.Fatal(err)
	}
	renames := callsOn(rec.Calls(), vfs.OpRename, "unit.state")
	if len(renames) != 1 {
		t.Fatalf("recorded renames %v, want the one save's", renames)
	}
	for _, p := range renames {
		for _, d := range chaostest.Damages {
			p, d := p, d
			t.Run(chaostest.LostName(p, d), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "unit.state")
				seed(t, path)
				ffs := vfs.NewFaultFS(vfs.OS,
					vfs.WithCanon(chaostest.Canon(dir, state.TempPattern)),
					vfs.WithRules(chaostest.LostRule(p, d, len(encNew)/2)))
				wrote, err := state.SaveChangedFS(ffs, path, stNew)
				chaostest.AssertFired(t, ffs, p)
				if !wrote || err != nil {
					t.Fatalf("the lost save reported wrote=%v, err=%v; the process sees its rename succeed", wrote, err)
				}
				raw, err := os.ReadFile(path)
				if err != nil || bytes.Equal(raw, encNew) || bytes.Equal(raw, encOld) {
					t.Fatalf("the power loss left the file intact (%d bytes, %v); the walk is vacuous", len(raw), err)
				}
				if got, err := state.LoadFS(nil, path); err == nil || got != nil {
					t.Fatalf("damaged file loaded: state %v, err %v; want a rejection (a cold unit)", got, err)
				}
				if wrote, err := state.SaveChangedFS(nil, path, stNew); !wrote || err != nil {
					t.Fatalf("save over the damaged file: wrote=%v, err=%v; want a rewrite", wrote, err)
				}
				if got, err := state.LoadFS(nil, path); err != nil || got.RecordCount() != stNew.RecordCount() {
					t.Fatalf("rewritten file does not load: %v", err)
				}
			})
		}
	}
}

// callsOn filters points to one (op, canonical path).
func callsOn(points []vfs.Call, op vfs.Op, path string) []vfs.Call {
	var out []vfs.Call
	for _, p := range points {
		if p.Op == op && p.Path == path {
			out = append(out, p)
		}
	}
	return out
}

// shortReadFS makes every file opened through it end one byte early — a
// read that returns fewer bytes than the file holds, with a clean EOF.
type shortReadFS struct{ vfs.FS }

func (s shortReadFS) Open(name string) (vfs.File, error) {
	f, err := s.FS.Open(name)
	if err != nil {
		return nil, err
	}
	fi, err := s.FS.Stat(name)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &shortFile{File: f, left: fi.Size() - 1}, nil
}

type shortFile struct {
	vfs.File
	left int64
}

func (f *shortFile) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.File.Read(p)
	f.left -= int64(n)
	return n, err
}

// TestSaveWritesWheneverDiskDiffers: the direct cases of the
// write-if-changed rule. Only a file that reads back fully and equal is
// left alone; anything else on disk is replaced by the current encoding.
func TestSaveWritesWheneverDiskDiffers(t *testing.T) {
	st := goldenState()
	var b bytes.Buffer
	if err := state.Encode(&b, st); err != nil {
		t.Fatal(err)
	}
	enc := b.Bytes()
	v5, err := os.ReadFile(filepath.Join("testdata", "unitstate_v5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := state.DecodeBytes(v5); err == nil || got != nil {
		t.Fatalf("v5 golden decodes (%+v); the v5 case is about a file the loader rejects", got)
	}
	flipped := bytes.Clone(enc)
	flipped[len(flipped)-2] ^= 0x40

	cases := []struct {
		name      string
		disk      []byte // nil: no file
		fsys      vfs.FS
		wantWrote bool
	}{
		{"missing file", nil, vfs.OS, true},
		{"equal bytes", enc, vfs.OS, false},
		{"same length, different bytes", flipped, vfs.OS, true},
		{"truncated file", enc[:len(enc)-1], vfs.OS, true},
		{"longer file", append(bytes.Clone(enc), 0), vfs.OS, true},
		{"empty file", []byte{}, vfs.OS, true},
		{"v5 file", v5, vfs.OS, true},
		{"equal bytes, short read", enc, shortReadFS{vfs.OS}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "unit.state")
			if tc.disk != nil {
				if err := os.WriteFile(path, tc.disk, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wrote, err := state.SaveChangedFS(tc.fsys, path, st)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != tc.wantWrote {
				t.Fatalf("wrote = %v, want %v", wrote, tc.wantWrote)
			}
			raw, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(raw, enc) {
				t.Fatalf("disk does not hold the current (v%d) encoding after the save: %v", state.FormatVersion, err)
			}
		})
	}
}

// TestSaveCallLog pins the I/O a save performs: an elided save is one
// open+read+close of the published file and nothing else, and a real save
// renames its temp file away without a trailing unlink of the old name.
func TestSaveCallLog(t *testing.T) {
	st := goldenState()
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.state")
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir, state.TempPattern)))
	if err := state.SaveFS(ffs, path, st); err != nil {
		t.Fatal(err)
	}
	first := ffs.Calls()
	for _, c := range first {
		if c.Op == vfs.OpRemove {
			t.Fatalf("successful save issued %v (the temp file was already renamed away)", c)
		}
	}
	if len(callsOn(first, vfs.OpRename, "unit.state")) != 1 {
		t.Fatalf("first save did not publish by rename: %v", first)
	}
	if err := state.SaveFS(ffs, path, st); err != nil {
		t.Fatal(err)
	}
	for _, c := range ffs.Calls()[len(first):] {
		if c.Path != "unit.state" || (c.Op != vfs.OpOpen && c.Op != vfs.OpRead && c.Op != vfs.OpClose) {
			t.Fatalf("elided save performed %v; want only open/read/close of the state file", c)
		}
	}
}

// TestChaosLoadNeverWrongState: torn on-disk prefixes of a valid file
// (every seventh length) must load as an error — never decode into a
// state that differs from the file's true source. A crash mid-write never
// publishes one (the temp file is renamed only once complete), but a power
// loss after the rename can, since saves do not fsync.
func TestChaosLoadNeverWrongState(t *testing.T) {
	_, stNew, _, encNew := chaosStates(t)
	dir := t.TempDir()
	for n := 0; n < len(encNew); n += 7 {
		path := filepath.Join(dir, "trunc.state")
		if err := os.WriteFile(path, encNew[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := state.LoadFS(nil, path)
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded without error (%v)", n, got)
		}
	}
	// The full file still loads.
	path := filepath.Join(dir, "full.state")
	if err := os.WriteFile(path, encNew, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := state.LoadFS(nil, path)
	if err != nil || got == nil || got.RecordCount() != stNew.RecordCount() {
		t.Fatalf("full encoding failed to load: %v", err)
	}
}

package state_test

// State-layer chaos suite: walk every injectable I/O fault point of a
// workload of saves — one that creates the state file, one that grows it,
// one that finds its bytes already there, one that shrinks it — and a load,
// and prove the write-if-changed and write-in-place contracts under all of
// them. Whatever a fault leaves at the state path is the old encoding (no
// file, before the first save), the new one, or bytes the loader rejects —
// old, new, or rejected — never a third state that decodes. A save that
// reports success has the new bytes on disk and is elided only when they
// already were, and the loader either returns one of the valid states or an
// error the callers treat as a cold start. The fault points come from
// recording a clean run, not from a hand-kept list.
//
// A save does not fsync, so a power loss can land its close without its
// data: the power-loss walk damages the written file every way that can
// happen and proves the load rejects it (a cold unit) and the next save
// rewrites it.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/faults"
	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/state"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vfs"
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

// TestSaveWritesInPlace pins the shape of a save and its durability
// contract: a state file only has to be valid or detectably invalid, so
// there is one write path. Every save compares through a read-only handle;
// every save that writes — creating the file or changing it — then opens
// the state file once for writing and ends with its close. No save makes a
// temp file, renames or fsyncs; an elided save opens nothing for writing
// and writes nothing.
func TestSaveWritesInPlace(t *testing.T) {
	stOld, stNew, _, _ := chaosStates(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.state")
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir)))
	// A new file, a file that grows, the same bytes again, a file that shrinks.
	for i, st := range []*core.UnitState{stOld, stNew, stNew, stOld} {
		before := len(ffs.Calls())
		wrote, err := state.SaveChangedFS(ffs, path, st)
		if err != nil {
			t.Fatal(err)
		}
		if wrote != (i != 2) {
			t.Fatalf("save %d: wrote = %v", i, wrote)
		}
		calls := ffs.Calls()[before:]
		ops := map[vfs.Op]int{}
		for _, c := range calls {
			if c.Path != "unit.state" && c.Op != vfs.OpMkdirAll {
				t.Fatalf("save %d touched %v; a save touches only its state file", i, c)
			}
			ops[c.Op]++
		}
		last := calls[len(calls)-1]
		switch {
		case ops[vfs.OpSync] != 0 || ops[vfs.OpCreateTemp] != 0 || ops[vfs.OpRename] != 0:
			t.Fatalf("save %d: %v; a state save never syncs, makes a temp file or renames", i, calls)
		case last.Op != vfs.OpClose:
			t.Fatalf("save %d: %v; want it to end with a close of unit.state", i, calls)
		case wrote && ops[vfs.OpOpenFile] != 1:
			t.Fatalf("save %d opened the file for writing %d times, want once: %v", i, ops[vfs.OpOpenFile], calls)
		case !wrote && ops[vfs.OpOpenFile]+ops[vfs.OpWrite]+ops[vfs.OpTruncate] != 0:
			t.Fatalf("elided save %d opened for writing or wrote: %v", i, calls)
		}
	}
}

// saveStep is one SaveChangedFS call of the chaos workload: the state it
// saves, and the state file's bytes read (past the fault injector) before
// and after — nil while there is no file.
type saveStep struct {
	target        []byte
	before, after []byte
	wrote         bool
	err           error
}

// TestChaosSaveLoad is the fault-point walk.
func TestChaosSaveLoad(t *testing.T) {
	stOld, stNew, encOld, encNew := chaosStates(t)
	if len(encOld) >= len(encNew) {
		t.Fatal("the new state must encode longer than the old, or the walk neither grows nor shrinks the file")
	}

	// The workload under test: create the state file with the old state
	// (the compare finds no file: MkdirAll, then the write), overwrite it with
	// the longer new one (the compare sees different bytes and must write
	// in place), save the new state again (the compare sees equal bytes and
	// elides), save the old state over it (a write that must cut the tail),
	// then read it back. Saves may fail under fault: that is the point.
	plan := []*core.UnitState{stOld, stNew, stNew, stOld}
	workload := func(t *testing.T, fsys vfs.FS, path string) (steps []saveStep) {
		t.Helper()
		disk := func() []byte {
			raw, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				return nil
			}
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		for _, st := range plan {
			s := saveStep{target: state.Marshal(st), before: disk()}
			s.wrote, s.err = state.SaveChangedFS(fsys, path, st)
			s.after = disk()
			if s.before != nil && s.after == nil {
				t.Fatal("state file vanished under a save fault")
			}
			steps = append(steps, s)
		}
		_, _ = state.LoadFS(fsys, path)
		return steps
	}
	canon := func(dir string) vfs.Option { return vfs.WithCanon(chaostest.Canon(dir)) }

	// Record a clean run to enumerate the fault points.
	recDir := t.TempDir()
	recPath := filepath.Join(recDir, "unit.state")
	rec := vfs.NewFaultFS(vfs.OS, canon(recDir))
	clean := workload(t, rec, recPath)
	for i, wantWrote := range []bool{true, true, false, true} {
		if clean[i].wrote != wantWrote || clean[i].err != nil {
			t.Fatalf("clean run, save %d: wrote=%v err=%v; want a write, a write, an elision, a write", i, clean[i].wrote, clean[i].err)
		}
	}
	// 29 points: the compares' 4 opens, 5 reads and 3 closes; the creating
	// save's mkdirall; the three writes' 3 openfiles, 3 writes, 3 truncates
	// and 3 closes; then the load's open, 2 reads and close.
	points := chaostest.Points(rec.Calls())
	if len(points) < 29 {
		t.Fatalf("recorded only %d fault points; the seam has shrunk: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpOpen, vfs.OpRead, vfs.OpMkdirAll, vfs.OpWrite,
		vfs.OpOpenFile, vfs.OpTruncate, vfs.OpClose} {
		if cov[op] == 0 {
			t.Fatalf("workload never performs %s; recording is not covering the save/load path (%v)", op, cov)
		}
	}
	// Five opens of the state file: the four saves' compares and the load.
	if n := len(callsOn(points, vfs.OpOpen, "unit.state")); n != 5 {
		t.Fatalf("recorded %d opens of the state file, want 5 (four compares + load): %v", n, points)
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
				ffs := vfs.NewFaultFS(vfs.OS, canon(dir), vfs.WithRules(chaostest.RuleFor(p, kind)))
				steps := workload(t, ffs, path)
				chaostest.AssertFired(t, ffs.Log, p)

				for i, s := range steps {
					// Invariant 1: the file is the old encoding, the new one,
					// or bytes the loader rejects — never a third state.
					if !bytes.Equal(s.after, s.before) && !bytes.Equal(s.after, s.target) {
						if got, err := state.DecodeBytes(bytes.Clone(s.after)); err == nil {
							t.Fatalf("save %d left %d bytes that are neither encoding and decode (unit %q)", i, len(s.after), got.Unit)
						}
					}
					// Invariant 2: a save lands or returns an error, and is
					// elided only when the disk already held the new bytes.
					if s.err == nil && !bytes.Equal(s.after, s.target) {
						t.Fatalf("save %d reported success but the file does not hold its encoding", i)
					}
					if s.err == nil && !s.wrote && !bytes.Equal(s.before, s.target) {
						t.Fatalf("save %d was elided while the disk differed from the new encoding", i)
					}
					if s.err != nil && s.wrote {
						t.Fatalf("save %d reported both a write and an error: %v", i, s.err)
					}
				}
				// Invariant 3: a clean load returns the state whose encoding
				// the file holds, or rejects the file (a cold unit).
				final := steps[len(steps)-1].after
				got, err := state.LoadFS(nil, path)
				switch {
				case final == nil:
					if err != nil || got != nil {
						t.Fatalf("load of a missing file: state %v, err %v; want a cold start", got, err)
					}
				case bytes.Equal(final, encOld) || bytes.Equal(final, encNew):
					want := stOld
					if bytes.Equal(final, encNew) {
						want = stNew
					}
					if err != nil || got.Unit != want.Unit || got.RecordCount() != want.RecordCount() {
						t.Fatalf("clean load of an intact file: %v", err)
					}
				case err == nil:
					t.Fatalf("a damaged file loaded")
				}

				// Invariant 4: recovery — the next clean save fully heals.
				if err := state.SaveFS(nil, path, stNew); err != nil {
					t.Fatalf("clean save after fault failed: %v", err)
				}
				raw, err := os.ReadFile(path)
				if err != nil || !bytes.Equal(raw, encNew) {
					t.Fatalf("recovery save did not leave the new state: %v", err)
				}
			})
		}
	}
}

// writeCloses returns the calls that end a save that wrote unit.state: the
// Close of a handle that wrote the file.
func writeCloses(calls []faults.Call) (out []faults.Call) {
	wrote := false
	for _, c := range calls {
		if c.Path != "unit.state" {
			continue
		}
		switch c.Op {
		case vfs.OpWrite:
			wrote = true
		case vfs.OpClose:
			if wrote {
				out = append(out, c)
			}
			wrote = false
		}
	}
	return out
}

// TestChaosPowerLoss is the power-loss walk: at the close of each save that
// writes the file — one that creates it, one that grows it, one that
// shrinks it — the file's name and size reach the disk and its new data
// does not, in each of the ways
// vfs.FaultLost damages a file, and the process dies there. The save
// reports success (the process never learns), the next load — after the
// "reboot" — must reject the file rather than decode it, and the next save
// must find the disk different and rewrite it whole.
func TestChaosPowerLoss(t *testing.T) {
	stOld, stNew, encOld, encNew := chaosStates(t)
	plan := []*core.UnitState{stOld, stNew, stOld}
	workload := func(fsys vfs.FS, path string) (wrote []bool, errs []error) {
		for _, st := range plan {
			w, err := state.SaveChangedFS(fsys, path, st)
			wrote, errs = append(wrote, w), append(errs, err)
		}
		return wrote, errs
	}
	canon := func(dir string) vfs.Option { return vfs.WithCanon(chaostest.Canon(dir)) }
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, canon(recDir))
	if _, errs := workload(rec, filepath.Join(recDir, "unit.state")); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatal(errs)
	}
	closes := writeCloses(rec.Calls())
	if len(closes) != len(plan) {
		t.Fatalf("recorded closes after a write %v, want one per save", closes)
	}
	// Cut and flip inside the shorter encoding, so no damage is a no-op.
	at := min(len(encOld), len(encNew)) / 2
	for i, p := range closes {
		for _, d := range chaostest.Damages {
			i, p, d := i, p, d
			t.Run(chaostest.LostName(p, d, i == 0), func(t *testing.T) {
				dir := t.TempDir()
				path := filepath.Join(dir, "unit.state")
				ffs := vfs.NewFaultFS(vfs.OS, canon(dir), vfs.WithRules(chaostest.LostRule(p, d, at)))
				wrote, errs := workload(ffs, path)
				chaostest.AssertFired(t, ffs.Log, p)
				if !wrote[i] || errs[i] != nil {
					t.Fatalf("the lost save reported wrote=%v, err=%v; the process sees its %s succeed", wrote[i], errs[i], p.Op)
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

// TestEveryTornOverwriteIsRejected: an overwrite in place that stops after
// k bytes leaves new[:k] over old[k:], and one whose truncate never ran
// leaves the old tail after the whole new encoding. For a new encoding
// shorter than, as long as and longer than the old one, every such file —
// with and without the final truncate — must be the old encoding, the new
// one, or rejected by the decoder: a torn save never makes a third state.
func TestEveryTornOverwriteIsRejected(t *testing.T) {
	old := state.Marshal(buildStateFrom(t, `func helper(x int) int { return x + 3; }
func main() int { return helper(4); }`))
	news := map[string][]byte{
		"shorter": state.Marshal(buildStateFrom(t, `func main() int { return 1; }`)),
		"equal": state.Marshal(buildStateFrom(t, `func helper(x int) int { return x + 5; }
func main() int { return helper(4); }`)),
		"longer": state.Marshal(buildStateFrom(t, `func helper(x int) int { return x + 3; }
func twice(x int) int { return helper(x) + helper(x); }
func main() int { return twice(4); }`)),
	}
	for name, enc := range news {
		t.Run(name, func(t *testing.T) {
			switch {
			case bytes.Equal(enc, old):
				t.Fatal("the new encoding equals the old one; the walk is vacuous")
			case name == "shorter" && len(enc) >= len(old),
				name == "equal" && len(enc) != len(old),
				name == "longer" && len(enc) <= len(old):
				t.Fatalf("new encoding is %d bytes against the old %d: not %s", len(enc), len(old), name)
			}
			for k := 0; k <= len(enc); k++ {
				torn := append(bytes.Clone(enc[:k]), old[min(k, len(old)):]...)
				files := [][]byte{torn}
				if len(torn) > len(enc) {
					files = append(files, torn[:len(enc)])
				}
				for _, f := range files {
					if bytes.Equal(f, old) || bytes.Equal(f, enc) {
						continue
					}
					if _, err := state.DecodeBytes(bytes.Clone(f)); err == nil {
						t.Fatalf("%d of %d new bytes over the old file (%d bytes long) decode", k, len(enc), len(f))
					}
				}
			}
		})
	}
}

// callsOn filters points to one (op, canonical path).
func callsOn(points []faults.Call, op vfs.Op, path string) []faults.Call {
	var out []faults.Call
	for _, p := range points {
		if p.Op == op && p.Path == path {
			out = append(out, p)
		}
	}
	return out
}

// shortReadFS makes every file opened through it for reading end one byte
// early — a read that returns fewer bytes than the file holds, with a clean
// EOF.
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
// left alone; anything else on disk — a file the compare cannot open
// included — is overwritten in place with the current encoding.
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
		{"twice as long", append(bytes.Clone(enc), enc...), vfs.OS, true},
		{"empty file", []byte{}, vfs.OS, true},
		{"v5 file", v5, vfs.OS, true},
		{"equal bytes, short read", enc, shortReadFS{vfs.OS}, true},
		{"file the save may not read", enc, vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpOpen, Kind: vfs.FaultError})), true},
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

// TestUnchangedSaveNeedsNoWriteAccess: a save whose bytes are already on
// disk reads the file and nothing else, so a state directory it may not
// write to — read-only, or every write-side call failing — still saves
// cleanly when nothing changed. A changed save there reports its error.
func TestUnchangedSaveNeedsNoWriteAccess(t *testing.T) {
	stOld, stNew, _, _ := chaosStates(t)
	path := filepath.Join(t.TempDir(), "unit.state")
	if err := state.SaveFS(nil, path, stOld); err != nil {
		t.Fatal(err)
	}
	var rules []vfs.Rule
	for _, op := range []vfs.Op{vfs.OpCreate, vfs.OpOpenFile, vfs.OpCreateTemp, vfs.OpRename, vfs.OpMkdirAll, vfs.OpWrite, vfs.OpTruncate} {
		rules = append(rules, vfs.Rule{Op: op, Kind: vfs.FaultError})
	}
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(rules...))
	if wrote, err := state.SaveChangedFS(ffs, path, stOld); wrote || err != nil {
		t.Fatalf("unchanged save without write access: wrote=%v, err=%v; want an elision", wrote, err)
	}
	if wrote, err := state.SaveChangedFS(ffs, path, stNew); wrote || err == nil {
		t.Fatalf("changed save without write access: wrote=%v, err=%v; want the error", wrote, err)
	}
}

// TestSaveCallLog pins the I/O a save performs, call by call: a save into a
// missing directory finds no file to compare, creates the directory, then
// writes the file the one way every save writes: opens it for writing
// once, writes it from the start and truncates it to the new length; an
// elided save is one open+read+close of the state file and nothing else; an
// overwrite compares the same way, then writes.
func TestSaveCallLog(t *testing.T) {
	stOld, stNew, _, _ := chaosStates(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "unit.state")
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir)))
	steps := []struct {
		name string
		st   *core.UnitState
		want string
	}{
		{"save into a missing directory", stOld, "open:sub/unit.state#1 mkdirall:sub#1 " +
			"openfile:sub/unit.state#1 write:sub/unit.state#1 truncate:sub/unit.state#1 close:sub/unit.state#1"},
		{"elided save", stOld, "open:sub/unit.state#2 read:sub/unit.state#1 read:sub/unit.state#2 close:sub/unit.state#2"},
		{"overwrite that grows the file", stNew, "open:sub/unit.state#3 read:sub/unit.state#3 read:sub/unit.state#4 " +
			"close:sub/unit.state#3 openfile:sub/unit.state#2 write:sub/unit.state#2 truncate:sub/unit.state#2 close:sub/unit.state#4"},
		{"overwrite that shrinks the file", stOld, "open:sub/unit.state#4 read:sub/unit.state#5 close:sub/unit.state#5 " +
			"openfile:sub/unit.state#3 write:sub/unit.state#3 truncate:sub/unit.state#3 close:sub/unit.state#6"},
	}
	for _, step := range steps {
		from := len(ffs.Calls())
		if err := state.SaveFS(ffs, path, step.st); err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, c := range ffs.Calls()[from:] {
			ops = append(ops, c.String())
		}
		if got := strings.Join(ops, " "); got != step.want {
			t.Fatalf("%s: %s, want %s", step.name, got, step.want)
		}
	}
}

// TestChaosLoadNeverWrongState: torn on-disk prefixes of a valid file
// (every seventh length) must load as an error — never decode into a
// state that differs from the file's true source. A save that fails or
// crashes part way over an empty or shorter file leaves one, and so can a
// power loss after a save, since saves do not fsync.
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

package vfs_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"statefulcc/internal/faults"
	"statefulcc/internal/vfs"
)

// TestOsFSPassthrough drives every FS operation through vfs.OS and checks
// it behaves exactly like the os package.
func TestOsFSPassthrough(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := vfs.OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}

	f, err := vfs.OS.Create(filepath.Join(sub, "x.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	tmp, err := vfs.OS.CreateTemp(sub, ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("temp")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vfs.OS.Rename(tmp.Name(), filepath.Join(sub, "y.txt")); err != nil {
		t.Fatal(err)
	}

	r, err := vfs.OS.Open(filepath.Join(sub, "x.txt"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil || string(data) != "hell" {
		t.Fatalf("read %q, %v", data, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := vfs.OS.ReadDir(sub)
	if err != nil || len(entries) != 2 {
		t.Fatalf("readdir: %d entries, %v", len(entries), err)
	}
	if fi, err := vfs.OS.Stat(filepath.Join(sub, "y.txt")); err != nil || fi.Size() != 4 {
		t.Fatalf("stat: %v, %v", fi, err)
	}
	if err := vfs.OS.Remove(filepath.Join(sub, "y.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.OS.Open(filepath.Join(sub, "y.txt")); !os.IsNotExist(err) {
		t.Fatalf("removed file still opens: %v", err)
	}
	if _, err := vfs.OS.Open(filepath.Join(sub, "missing")); err == nil {
		t.Fatal("open of missing file succeeded")
	}
}

func TestDefault(t *testing.T) {
	if vfs.Default(nil) != vfs.OS {
		t.Error("Default(nil) is not OS")
	}
	ffs := vfs.NewFaultFS(vfs.OS)
	if vfs.Default(ffs) != vfs.FS(ffs) {
		t.Error("Default does not pass through a non-nil FS")
	}
}

// TestFaultNthCall: a rule with Nth fails exactly the nth matching call.
func TestFaultNthCall(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpCreate, Nth: 2}))

	if f, err := ffs.Create(filepath.Join(dir, "one")); err != nil {
		t.Fatalf("first create should pass: %v", err)
	} else {
		f.Close()
	}
	if _, err := ffs.Create(filepath.Join(dir, "two")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("second create should fail injected, got %v", err)
	}
	if f, err := ffs.Create(filepath.Join(dir, "three")); err != nil {
		t.Fatalf("third create should pass: %v", err)
	} else {
		f.Close()
	}
	if got := len(ffs.Injected()); got != 1 {
		t.Fatalf("injected %d faults, want 1", got)
	}
}

// TestFaultGlob: path globs select by full path (with separators) or base
// name (without).
func TestFaultGlob(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpCreate, Path: "*.state"}))
	if _, err := ffs.Create(filepath.Join(dir, "unit.state")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("*.state create should fail, got %v", err)
	}
	if f, err := ffs.Create(filepath.Join(dir, "unit.other")); err != nil {
		t.Fatalf("non-matching create failed: %v", err)
	} else {
		f.Close()
	}

	// Anchored glob (contains a separator) must not fall back to base
	// matching in a different directory.
	anchored := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Path: filepath.Join(dir, "sub", "*.state")}))
	if f, err := anchored.Create(filepath.Join(dir, "unit.state")); err != nil {
		t.Fatalf("anchored glob leaked to other dir: %v", err)
	} else {
		f.Close()
	}
}

// TestFaultTornWrite: a torn write lands half the buffer and reports an
// injected error with a short count.
func TestFaultTornWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpWrite, Kind: vfs.FaultTorn}))
	f, err := ffs.Create(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("torn write reported %v", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write landed %d bytes, want %d", n, len(payload)/2)
	}
	f.Close()
	data, err := os.ReadFile(filepath.Join(dir, "torn"))
	if err != nil || string(data) != "01234" {
		t.Fatalf("on-disk torn content %q, %v", data, err)
	}
}

// TestFaultTornRead: a torn read fills half the buffer and reports an
// injected error with the short count.
func TestFaultTornRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpRead, Kind: vfs.FaultTorn}))
	f, err := ffs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.Read(buf)
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("torn read reported %v", err)
	}
	if string(buf[:n]) != "01234" {
		t.Fatalf("torn read filled %q, want %q", buf[:n], "01234")
	}
}

// TestFaultCrash: after a crash fault fires, every subsequent operation —
// including handles opened before the crash — fails with ErrCrashed.
func TestFaultCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpRename, Kind: vfs.FaultCrash}))

	pre, err := ffs.Create(filepath.Join(dir, "pre"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(filepath.Join(dir, "pre"), filepath.Join(dir, "post")); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("crash op reported %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("FS not marked crashed")
	}
	if _, err := ffs.Create(filepath.Join(dir, "later")); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("post-crash create reported %v", err)
	}
	if _, err := pre.Write([]byte("x")); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("post-crash write on old handle reported %v", err)
	}
	if err := pre.Close(); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("post-crash close reported %v", err)
	}
}

// TestCallLogIdentity: the log assigns stable (op, path, nth) identities,
// and CreateTemp folds into its dir/pattern class.
func TestCallLogIdentity(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	for i := 0; i < 2; i++ {
		f, err := ffs.CreateTemp(dir, ".state-*")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	calls := ffs.Calls()
	key := filepath.Join(dir, ".state-*")
	want := []faults.Call{
		{Op: vfs.OpCreateTemp, Path: key, N: 1},
		{Op: vfs.OpClose, Path: key, N: 1},
		{Op: vfs.OpCreateTemp, Path: key, N: 2},
		{Op: vfs.OpClose, Path: key, N: 2},
	}
	// Without a canonicalizer the Close path is the literal temp name, so
	// install identity expectations only on ops keyed by pattern.
	if len(calls) != len(want) {
		t.Fatalf("logged %d calls, want %d: %v", len(calls), len(want), calls)
	}
	for i := range want {
		if calls[i].Op != want[i].Op {
			t.Fatalf("call %d op = %s, want %s", i, calls[i].Op, want[i].Op)
		}
	}
	if calls[0] != want[0] || calls[2] != want[2] {
		t.Fatalf("createtemp identities %v / %v, want %v / %v", calls[0], calls[2], want[0], want[2])
	}
}

// TestScheduleReplay: the same seed over the same call sequence injects
// the same faults; a different seed (almost surely) differs somewhere
// over many calls.
func TestScheduleReplay(t *testing.T) {
	run := func(seed uint64) []faults.Call {
		dir := t.TempDir()
		ffs := vfs.NewFaultFS(vfs.OS,
			vfs.WithSchedule(&vfs.Schedule{Seed: seed, Prob: 0.3, Torn: true}),
			vfs.WithCanon(func(p string) string {
				rel, err := filepath.Rel(dir, p)
				if err != nil {
					return p
				}
				return rel
			}))
		for i := 0; i < 40; i++ {
			name := filepath.Join(dir, "f"+string(rune('a'+i%8)))
			f, err := ffs.Create(name)
			if err != nil {
				continue
			}
			f.Write([]byte("payload"))
			f.Sync()
			f.Close()
		}
		return ffs.Injected()
	}

	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("schedule with prob 0.3 injected nothing over 160 calls")
	}
	if c := run(1042); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestFaultTruncate: truncate is a fault point of its own. An injected fault
// leaves the file's size as it was; the next truncate passes through.
func TestFaultTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Op: vfs.OpTruncate, Nth: 1, Kind: vfs.FaultTorn}))
	f, err := ffs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("faulted truncate reported %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 10 {
		t.Fatalf("faulted truncate changed the file: %v, %v", fi.Size(), err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "0123" {
		t.Fatalf("file holds %q (%v), want %q", got, err, "0123")
	}
	want := []vfs.Op{vfs.OpOpenFile, vfs.OpTruncate, vfs.OpTruncate, vfs.OpClose}
	calls := ffs.Calls()
	if len(calls) != len(want) {
		t.Fatalf("logged %v, want ops %v", calls, want)
	}
	for i, op := range want {
		if calls[i].Op != op {
			t.Fatalf("call %d is %v, want %s", i, calls[i], op)
		}
	}
}

// TestFaultLost: a FaultLost close of a file opened for writing succeeds and
// leaves the file damaged as the rule says — zeroed at its length, cut to
// At bytes, or with the byte at At inverted — and every later operation
// fails as after a crash. On a handle opened for reading, or on any other
// op (a rename included), it is a crash that leaves the files as they were.
func TestFaultLost(t *testing.T) {
	data := []byte("0123456789")
	cases := []struct {
		damage vfs.Damage
		want   []byte
	}{
		{vfs.DamageZeroed, make([]byte, len(data))},
		{vfs.DamageTruncated, []byte("0123")},
		{vfs.DamageFlipped, []byte("0123\xcb56789")},
	}
	for _, tc := range cases {
		t.Run(tc.damage.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "f")
			ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
				vfs.Rule{Op: vfs.OpClose, Kind: vfs.FaultLost, Damage: tc.damage, At: 4}))
			f, err := ffs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("lost close reported %v; the caller must see it succeed", err)
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != string(tc.want) {
				t.Fatalf("file holds %q (%v), want %q", got, err, tc.want)
			}
			if !ffs.Crashed() || len(ffs.Injected()) != 1 {
				t.Fatalf("crashed %v, injected %v; want the power loss recorded", ffs.Crashed(), ffs.Injected())
			}
			if _, err := ffs.Open(path); !errors.Is(err, vfs.ErrCrashed) {
				t.Fatalf("open after the power loss: %v, want ErrCrashed", err)
			}
		})
	}

	t.Run("reader", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
			vfs.Rule{Op: vfs.OpClose, Kind: vfs.FaultLost, Damage: vfs.DamageZeroed}))
		f, err := ffs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("lost close of a reader reported %v, want ErrCrashed", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != string(data) {
			t.Fatalf("a reader's lost close changed the file: %q, %v", got, err)
		}
	})

	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		src, dst := filepath.Join(dir, "tmp"), filepath.Join(dir, "dst")
		if err := os.WriteFile(src, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
			vfs.Rule{Op: vfs.OpRename, Kind: vfs.FaultLost, Damage: vfs.DamageZeroed}))
		if err := ffs.Rename(src, dst); !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("lost rename reported %v, want ErrCrashed", err)
		}
		if got, err := os.ReadFile(src); err != nil || string(got) != string(data) {
			t.Fatalf("a crashed rename changed its source: %q, %v", got, err)
		}
		if _, err := os.Stat(dst); !os.IsNotExist(err) {
			t.Fatalf("a crashed rename landed: %v", err)
		}
	})
}

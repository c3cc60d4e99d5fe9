package buildsys_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/workload"
)

// megaMemoDir builds the megarepo base and two default commits on a
// resident stateful builder over a new state directory, and returns the
// directory, the snapshots and their stateless references.
func megaMemoDir(t *testing.T) (string, []project.Snapshot, []oracletest.Ref) {
	t.Helper()
	base := workload.Generate(workload.MegaProfile())
	hist := workload.GenerateHistory(base, 7, 3, workload.DefaultCommitOptions())
	stream := append([]project.Snapshot{base}, hist.Commits...)
	ref := oracletest.Reference(t, nil, stream...)
	dir := t.TempDir()
	resident, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range stream[:3] {
		if _, err := resident.Build(snap); err != nil {
			t.Fatal(err)
		}
	}
	return dir, stream, ref
}

func freshBuild(t *testing.T, dir string, audit float64, snap project.Snapshot) *buildsys.Report {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir, AuditRate: audit})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("warnings %v", rep.Warnings)
	}
	return rep
}

// TestMemoReplaysAcrossBuilders: a new stateful builder over the directory
// a resident builder wrote loads every unit's memo, replays from it at
// audit rate 0 and links the stateless reference's program; a builder over
// the unchanged tree after it writes no memo file (a fully replayed unit
// re-records the bytes it loaded); and at audit rate 1 the sentinel finds
// nothing unsound.
func TestMemoReplaysAcrossBuilders(t *testing.T) {
	dir, stream, ref := megaMemoDir(t)
	units := int64(len(stream[3]))
	rep := freshBuild(t, dir, 0, stream[3])
	if d := ref[3].Diff(rep.Program); d != "" {
		t.Fatalf("new builder over the memo: %s", d)
	}
	m := rep.Metrics
	if m[obs.CtrStateMemoLoads] != units || m[obs.CtrPassReplayed] == 0 || m[obs.CtrCodeReused] == 0 {
		t.Fatalf("%d memos loaded of %d units, %d replays, %d code reuses; want all, > 0, > 0",
			m[obs.CtrStateMemoLoads], units, m[obs.CtrPassReplayed], m[obs.CtrCodeReused])
	}
	if m[obs.CtrStateMemoSaves] > int64(rep.UnitsCompiled) || m[obs.CtrStateMemoSaves] == 0 {
		t.Fatalf("%d memo saves for a commit; want the edited units' few", m[obs.CtrStateMemoSaves])
	}

	before := map[string][]byte{}
	for _, u := range stream[3].Units() {
		b, err := os.ReadFile(buildsys.MemoPath(dir, u))
		if err != nil {
			t.Fatal(err)
		}
		before[u] = b
	}
	rep = freshBuild(t, dir, 0, stream[3])
	if d := ref[3].Diff(rep.Program); d != "" {
		t.Fatalf("no-edit rebuild: %s", d)
	}
	if n, same := rep.Metrics[obs.CtrStateMemoSaves], rep.Metrics[obs.CtrStateMemoSaveUnchanged]; n != 0 || same != units {
		t.Fatalf("no-edit rebuild: %d memo files written, %d unchanged; want 0, %d", n, same, units)
	}
	if lowered := rep.Metrics[obs.CtrFuncsLowered]; lowered != 0 {
		t.Errorf("no-edit rebuild lowered %d functions, want 0", lowered)
	}
	for u, b := range before {
		after, err := os.ReadFile(buildsys.MemoPath(dir, u))
		if err != nil || string(after) != string(b) {
			t.Fatalf("%s: the memo file moved on a no-edit rebuild (%v)", u, err)
		}
	}

	rep = freshBuild(t, dir, 1, stream[3])
	if d := ref[3].Diff(rep.Program); d != "" {
		t.Fatalf("audited rebuild: %s", d)
	}
	if rep.Metrics[obs.CtrAuditSampled] == 0 || rep.Metrics[obs.CtrAuditUnsound] != 0 {
		t.Fatalf("audit rate 1: %d sampled, %d unsound; want > 0, 0", rep.Metrics[obs.CtrAuditSampled], rep.Metrics[obs.CtrAuditUnsound])
	}
}

// TestDamagedMemoFilesReplayNothing damages every megarepo unit's memo
// file, each in turn by one of six faults: torn (its first half over
// another unit's file), truncated, a flipped byte, another format version,
// and another compiler build or another pipeline with its checksum made
// good. The next builder rejects
// each (state.memo_rejected; a file of another compiler build without a
// warning, being no fault), replays nothing, links the stateless
// reference's program, and rewrites every file, which the builder after it
// loads.
func TestDamagedMemoFilesReplayNothing(t *testing.T) {
	dir, stream, ref := megaMemoDir(t)
	snap := stream[2]
	units := snap.Units()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	damages := []func(b, other []byte) []byte{
		func(b, other []byte) []byte { // torn: half of b written over other
			torn := append([]byte(nil), other...)
			if len(torn) <= len(b)/2 {
				return b[:len(b)/2]
			}
			copy(torn, b[:len(b)/2])
			return torn
		},
		func(b, _ []byte) []byte { return b[:len(b)-1] }, // truncated
		func(b, _ []byte) []byte { b[len(b)/2] ^= 0x10; return b },
		func(b, _ []byte) []byte { binary.LittleEndian.PutUint32(b[4:], state.MemoVersion+1); return b },
		func(b, _ []byte) []byte { // another compiler build
			binary.LittleEndian.PutUint64(b[16:], binary.LittleEndian.Uint64(b[16:])^1)
			binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[12:], castagnoli))
			return b
		},
		func(b, _ []byte) []byte { // another pipeline
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])^1)
			binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(b[12:], castagnoli))
			return b
		},
	}
	for i, u := range units {
		path := buildsys.MemoPath(dir, u)
		b, err1 := os.ReadFile(path)
		other, err2 := os.ReadFile(buildsys.MemoPath(dir, units[(i+1)%len(units)]))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if err := os.WriteFile(path, damages[i%len(damages)](b, other), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if d := ref[2].Diff(rep.Program); d != "" {
		t.Fatalf("build over damaged memos: %s", d)
	}
	for _, w := range rep.Warnings {
		if strings.Contains(w, state.ErrOtherCompiler.Error()) {
			t.Errorf("a memo file of another compiler build is no fault to warn of: %s", w)
		}
	}
	m := rep.Metrics
	n := int64(len(units))
	if m[obs.CtrStateMemoRejected] != n || m[obs.CtrStateMemoLoads] != 0 || m[obs.CtrPassReplayed] != 0 || m[obs.CtrCodeReused] != 0 {
		t.Fatalf("%d memos rejected, %d loaded, %d replays, %d code reuses; want %d, 0, 0, 0",
			m[obs.CtrStateMemoRejected], m[obs.CtrStateMemoLoads], m[obs.CtrPassReplayed], m[obs.CtrCodeReused], n)
	}
	if m[obs.CtrStateMemoSaves] != n {
		t.Fatalf("%d memo files rewritten, want %d", m[obs.CtrStateMemoSaves], n)
	}
	rep = freshBuild(t, dir, 0, snap)
	if d := ref[2].Diff(rep.Program); d != "" {
		t.Fatalf("build after the heal: %s", d)
	}
	if m := rep.Metrics; m[obs.CtrStateMemoLoads] != n || m[obs.CtrPassReplayed] == 0 {
		t.Fatalf("after the heal: %d memos loaded, %d replays; want %d, > 0", m[obs.CtrStateMemoLoads], m[obs.CtrPassReplayed], n)
	}
}

// TestResidentMemoFilesLag: a resident builder writes a unit's memo file on
// the unit's first compile, and a recompile's only at the end of a build
// that ends memoFlushInterval after the last flush. Within the interval an
// edit writes no memo file, and a new builder over the lagging files links
// the reference; the first build after it writes exactly the edited
// units', and a new builder then replays from them.
func TestResidentMemoFilesLag(t *testing.T) {
	defer buildsys.SetMemoFlushInterval(time.Hour)()
	base := workload.Generate(workload.MegaProfile())
	hist := workload.GenerateHistory(base, 7, 1, workload.DefaultCommitOptions())
	edit := hist.Commits[0]
	ref := oracletest.Reference(t, nil, base, edit)
	dir := t.TempDir()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	units := int64(len(base))
	if rep := mustBuild(t, b, base); rep.Metrics[obs.CtrStateMemoSaves] != units {
		t.Fatalf("cold build wrote %d memo files, want %d", rep.Metrics[obs.CtrStateMemoSaves], units)
	}
	files := func() map[string]string {
		m := map[string]string{}
		for _, u := range base.Units() {
			raw, err := os.ReadFile(buildsys.MemoPath(dir, u))
			if err != nil {
				t.Fatal(err)
			}
			m[u] = string(raw)
		}
		return m
	}
	cold := files()

	rep := mustBuild(t, b, edit)
	if d := ref[1].Diff(rep.Program); d != "" {
		t.Fatal(d)
	}
	if n := rep.Metrics[obs.CtrStateMemoSaves]; n != units || rep.UnitsCompiled == 0 {
		t.Fatalf("the edit compiled %d units and the builder's saves reached %d; want > 0 and still %d", rep.UnitsCompiled, n, units)
	}
	for u, raw := range files() {
		if raw != cold[u] {
			t.Fatalf("%s: memo file written within the flush interval", u)
		}
	}
	// A process started now finds the edited units' memo files older than
	// their state files: it replays less, links the same program, and the
	// sentinel finds nothing unsound.
	for _, audit := range []float64{0, 1} {
		rep := freshBuild(t, copyDir(t, dir), audit, edit)
		if d := ref[1].Diff(rep.Program); d != "" {
			t.Fatalf("new builder over lagging memo files, audit rate %g: %s", audit, d)
		}
		if m := rep.Metrics; m[obs.CtrStateMemoLoads] != units || m[obs.CtrAuditUnsound] != 0 {
			t.Fatalf("new builder over lagging memo files, audit rate %g: %d memos loaded, %d unsound; want %d, 0",
				audit, m[obs.CtrStateMemoLoads], m[obs.CtrAuditUnsound], units)
		}
	}

	buildsys.SetMemoFlushInterval(0)
	rep = mustBuild(t, b, edit)
	if rep.UnitsCompiled != 0 {
		t.Fatalf("no-edit build compiled %d units", rep.UnitsCompiled)
	}
	changed := 0
	for u, raw := range files() {
		if raw != cold[u] {
			changed++
			if edit[u] == nil || string(edit[u]) == string(base[u]) {
				t.Errorf("%s: memo file rewritten though the edit left it alone", u)
			}
		}
	}
	if n := rep.Metrics[obs.CtrStateMemoSaves] - units; n == 0 || int64(changed) != n {
		t.Fatalf("the flush wrote %d memo files and %d changed; want the edited units'", n, changed)
	}

	rep = freshBuild(t, dir, 0, edit)
	if d := ref[1].Diff(rep.Program); d != "" {
		t.Fatal(d)
	}
	if m := rep.Metrics; m[obs.CtrStateMemoLoads] != units || m[obs.CtrFuncsLowered] != 0 || m[obs.CtrStateMemoSaves] != 0 {
		t.Fatalf("new builder after the flush: %d memos loaded, %d functions lowered, %d memo files written; want %d, 0, 0",
			m[obs.CtrStateMemoLoads], m[obs.CtrFuncsLowered], m[obs.CtrStateMemoSaves], units)
	}
}

// copyDir copies the regular files of a state directory into a new one.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

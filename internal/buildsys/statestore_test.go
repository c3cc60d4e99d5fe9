package buildsys_test

// Write-if-changed state persistence at the build-system level: a fresh
// builder over a warm state directory recompiles every unit (the object
// cache is in memory) but must write only the state files whose bytes
// changed. Runs in the -race gate (Makefile `race` target) on a parallel
// pool.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/faults"
	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/footprint"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/vfs"
	"statefulcc/internal/workload"
)

// freshStateful is a new stateful builder ("new process") over dir on a
// parallel pool, optionally behind fsys and with footprint tracing.
func freshStateful(t *testing.T, fsys vfs.FS, dir string, traced bool) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: dir, Workers: 4, FS: fsys, Footprint: traced,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withNewFunc returns snap with a fresh function appended to each named
// unit — an edit that always changes the unit's dormancy records.
func withNewFunc(snap project.Snapshot, tag string, units ...string) project.Snapshot {
	out := snap.Clone()
	for i, u := range units {
		out[u] = append(out[u],
			fmt.Sprintf("\nfunc extra_%s_%d(x int) int { return x * 3 + %d; }\n", tag, i, i+1)...)
	}
	return out
}

// stateWrites tallies the state saves that wrote in a recorded call log —
// the names of the files they wrote, one per save — and the truncates on
// state files.
func stateWrites(calls []faults.Call) (written []string, truncated int) {
	for _, c := range stateCloses(calls) {
		written = append(written, c.Path)
	}
	for _, c := range calls {
		if c.Op == vfs.OpTruncate && strings.HasSuffix(c.Path, ".state") {
			truncated++
		}
	}
	sort.Strings(written)
	return written, truncated
}

// stateFiles maps each unit to its state file in dir and the file's bytes,
// checking on the way that every file decodes and re-encodes to itself.
func stateFiles(t *testing.T, dir string) (paths map[string]string, raw map[string][]byte) {
	t.Helper()
	paths, raw = map[string]string{}, map[string][]byte{}
	matches, err := filepath.Glob(filepath.Join(dir, "*.state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Decode a copy: the decoded state aliases its input buffer.
		st, err := state.DecodeBytes(bytes.Clone(data))
		if err != nil {
			t.Fatalf("%s does not decode: %v", filepath.Base(path), err)
		}
		var re bytes.Buffer
		if err := state.Encode(&re, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("%s does not re-encode to its own bytes", filepath.Base(path))
		}
		paths[st.Unit], raw[st.Unit] = filepath.Base(path), data
	}
	return paths, raw
}

// TestStateWrittenOnlyWhenChanged: over a warm state directory a no-edit
// build in a new process writes no state file, a k-unit edit writes
// exactly the k edited units' files, and the counters say so.
func TestStateWrittenOnlyWhenChanged(t *testing.T) {
	base := workload.Generate(obsProfile())
	units := base.Units()
	n := len(units)
	dir := t.TempDir()
	canon := vfs.WithCanon(chaostest.Canon(dir))

	cold := mustBuild(t, freshStateful(t, nil, dir, false), base)
	if got := cold.Metrics[obs.CtrStateSaves]; got != int64(n) {
		t.Fatalf("cold build: %s = %d, want %d", obs.CtrStateSaves, got, n)
	}
	if got := cold.Metrics[obs.CtrStateSaveUnchanged]; got != 0 {
		t.Fatalf("cold build: %s = %d, want 0", obs.CtrStateSaveUnchanged, got)
	}
	paths, before := stateFiles(t, dir)
	if len(paths) != n {
		t.Fatalf("cold build left %d state files for %d units", len(paths), n)
	}

	// No edit, new process: every unit recompiles, nothing is written.
	rec := vfs.NewFaultFS(vfs.OS, canon)
	rep := mustBuild(t, freshStateful(t, rec, dir, false), base)
	if rep.UnitsCompiled != n {
		t.Fatalf("fresh builder compiled %d of %d units; the no-edit case is vacuous", rep.UnitsCompiled, n)
	}
	if w, tr := stateWrites(rec.Calls()); len(w) != 0 || tr != 0 {
		t.Fatalf("no-edit build wrote state: files %v, %d truncates", w, tr)
	}
	if saves, same := rep.Metrics[obs.CtrStateSaves], rep.Metrics[obs.CtrStateSaveUnchanged]; saves != 0 || same != int64(n) {
		t.Fatalf("no-edit build: %s = %d, %s = %d; want 0 and %d",
			obs.CtrStateSaves, saves, obs.CtrStateSaveUnchanged, same, n)
	}
	if got := rep.Metrics[obs.CtrStateBytesWritten]; got != 0 {
		t.Fatalf("no-edit build: %s = %d, want 0", obs.CtrStateBytesWritten, got)
	}

	// A k-unit edit, new process: exactly the edited units' files.
	edited := []string{units[1], units[n-2]}
	rec = vfs.NewFaultFS(vfs.OS, canon)
	rep = mustBuild(t, freshStateful(t, rec, dir, false), withNewFunc(base, "a", edited...))
	k := len(edited)
	written, _ := stateWrites(rec.Calls())
	want := []string{paths[edited[0]], paths[edited[1]]}
	sort.Strings(want)
	if strings.Join(written, " ") != strings.Join(want, " ") {
		t.Fatalf("%d-unit edit wrote %v; want %v", k, written, want)
	}
	if saves, same := rep.Metrics[obs.CtrStateSaves], rep.Metrics[obs.CtrStateSaveUnchanged]; saves != int64(k) || same != int64(n-k) {
		t.Fatalf("%d-unit edit: %s = %d, %s = %d; want %d and %d",
			k, obs.CtrStateSaves, saves, obs.CtrStateSaveUnchanged, same, k, n-k)
	}
	_, after := stateFiles(t, dir)
	if got, want := rep.Metrics[obs.CtrStateBytesWritten], int64(len(after[edited[0]])+len(after[edited[1]])); got != want {
		t.Fatalf("%d-unit edit: %s = %d, want the %d bytes of the two rewritten files", k, obs.CtrStateBytesWritten, got, want)
	}
	for _, u := range units {
		changed := !bytes.Equal(before[u], after[u])
		if isEdited := u == edited[0] || u == edited[1]; changed != isEdited {
			t.Fatalf("unit %s: state bytes changed = %v, edited = %v", u, changed, isEdited)
		}
	}

	// A file deleted or replaced behind the builder's back is rewritten:
	// the compare is against the disk, not against what was loaded.
	if err := os.Remove(filepath.Join(dir, paths[units[0]])); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, paths[units[2]]), []byte("not a state file"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep = mustBuild(t, freshStateful(t, nil, dir, false), withNewFunc(base, "a", edited...))
	if got := rep.Metrics[obs.CtrStateSaves]; got != 2 {
		t.Fatalf("after deleting one state file and corrupting another: %s = %d, want 2", obs.CtrStateSaves, got)
	}
	if _, healed := stateFiles(t, dir); len(healed) != n {
		t.Fatalf("%d state files after healing, want %d", len(healed), n)
	}
}

// TestBuilderPerCommitMatchesStateless: a new builder per commit over one
// state directory (cold + 3 edits) links the stateless oracle's program at
// every commit, with footprint tracing off and on, and leaves only
// canonical state files behind.
func TestBuilderPerCommitMatchesStateless(t *testing.T) {
	stream := oracletest.Stream(obsProfile(), workload.StreamDefault, 4242, 3)
	oracle := oracletest.Reference(t, nil, stream...)
	for _, traced := range []bool{false, true} {
		traced := traced
		t.Run(fmt.Sprintf("footprint=%v", traced), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			oracletest.Walk(t, stream, oracle, oracletest.Candidate{
				Name: "builder per commit",
				Build: func(_ int, snap project.Snapshot) (*buildsys.Report, error) {
					return freshStateful(t, nil, dir, traced).Build(snap)
				},
				Check: func(i int, rep *buildsys.Report) {
					if len(rep.Warnings) != 0 {
						t.Fatalf("commit %d: warnings %v", i, rep.Warnings)
					}
					stateFiles(t, dir)
				},
			})
		})
	}
}

// TestSaveCompareStaysOutOfFootprint: the state load and the save's
// compare-read are builder bookkeeping, not dependencies of the unit — the
// state is an input to the optimizer, not to the output. Neither a resident
// builder's recompiled units nor a fresh builder's, which load their state
// from disk, may name a file in their footprints.
func TestSaveCompareStaysOutOfFootprint(t *testing.T) {
	base := workload.Generate(obsProfile())
	units := base.Units()
	edited := []string{units[0], units[3]}
	files := func(r *footprint.Record) []footprint.Entry {
		return r.Filter(func(k footprint.Kind) bool { return k == footprint.KindFile })
	}

	dir := t.TempDir()
	b := freshStateful(t, nil, dir, true)
	mustBuild(t, b, base)
	rep := mustBuild(t, b, withNewFunc(base, "a", edited...))
	if got := rep.Metrics[obs.CtrStateSaves]; got != int64(len(units)+len(edited)) {
		t.Fatalf("resident builder: %s = %d after cold build + %d-unit edit", obs.CtrStateSaves, got, len(edited))
	}
	fps := b.Footprints()
	for _, u := range edited {
		if fps[u] == nil {
			t.Fatalf("no footprint for recompiled unit %s", u)
		}
		if got := files(fps[u]); len(got) != 0 {
			t.Fatalf("unit %s: footprint gained file reads from its save: %v", u, got)
		}
	}

	b2 := freshStateful(t, nil, dir, true)
	rep = mustBuild(t, b2, withNewFunc(base, "b", edited...))
	if got := rep.Metrics[obs.CtrStateLoads]; got != int64(len(units)) {
		t.Fatalf("fresh builder: %s = %d, want %d; the load half is vacuous", obs.CtrStateLoads, got, len(units))
	}
	for u, fp := range b2.Footprints() {
		if got := files(fp); len(got) != 0 {
			t.Fatalf("unit %s: footprint gained file reads from its state load: %v", u, got)
		}
	}
}

// TestFreshFootprintBuildWritesNoState: a no-edit build by a fresh builder
// with footprint tracing over a warm, traced state directory writes no
// state file. A footprint that named the state file it was loaded from,
// with the hash of those bytes, changed with every save, so every fresh
// traced process rewrote every file.
func TestFreshFootprintBuildWritesNoState(t *testing.T) {
	base := workload.Generate(obsProfile())
	n := len(base.Units())
	dir := t.TempDir()
	mustBuild(t, freshStateful(t, nil, dir, true), base)
	_, before := stateFiles(t, dir)

	rec := vfs.NewFaultFS(vfs.OS, vfs.WithCanon(chaostest.Canon(dir)))
	rep := mustBuild(t, freshStateful(t, rec, dir, true), base)
	if rep.UnitsCompiled != n {
		t.Fatalf("fresh builder compiled %d of %d units; the no-edit case is vacuous", rep.UnitsCompiled, n)
	}
	if w, tr := stateWrites(rec.Calls()); len(w) != 0 || tr != 0 {
		t.Fatalf("fresh traced no-edit build wrote state: files %v, %d truncates", w, tr)
	}
	if saves, same := rep.Metrics[obs.CtrStateSaves], rep.Metrics[obs.CtrStateSaveUnchanged]; saves != 0 || same != int64(n) {
		t.Fatalf("%s = %d, %s = %d; want 0 and %d", obs.CtrStateSaves, saves, obs.CtrStateSaveUnchanged, same, n)
	}
	_, after := stateFiles(t, dir)
	for u, raw := range before {
		if !bytes.Equal(after[u], raw) {
			t.Fatalf("unit %s: state file changed", u)
		}
	}
}

// TestReportStateBytesAreTheFiles: Report.StateBytes is the sum of the
// state files' sizes after a build — the length of the one encoding each
// save made, carried from the worker — through a cold build, an edit, a
// fresh builder over the warm directory (whose saves are elided) and a
// remote adoption from a shared cache. Without a state directory the
// report says the same.
func TestReportStateBytesAreTheFiles(t *testing.T) {
	base := workload.Generate(obsProfile())
	units := base.Units()
	edit := withNewFunc(base, "a", units[0], units[4])
	onDisk := func(dir string) int {
		_, raw := stateFiles(t, dir)
		n := 0
		for _, data := range raw {
			n += len(data)
		}
		return n
	}

	dir := t.TempDir()
	b := freshStateful(t, nil, dir, false)
	noDir := freshStateful(t, nil, "", false)
	for i, snap := range []project.Snapshot{base, edit} {
		rep := mustBuild(t, b, snap)
		if want := onDisk(dir); rep.StateBytes != want || want == 0 {
			t.Fatalf("build %d: StateBytes = %d, state files hold %d bytes", i, rep.StateBytes, want)
		}
		if got := mustBuild(t, noDir, snap).StateBytes; got != rep.StateBytes {
			t.Fatalf("build %d without a state directory: StateBytes = %d, want %d", i, got, rep.StateBytes)
		}
	}
	rep := mustBuild(t, freshStateful(t, nil, dir, false), edit)
	if want := onDisk(dir); rep.StateBytes != want || rep.Metrics[obs.CtrStateSaves] != 0 {
		t.Fatalf("fresh builder: StateBytes = %d with %d saves, state files hold %d bytes",
			rep.StateBytes, rep.Metrics[obs.CtrStateSaves], want)
	}

	store := cas.NewMemCAS(0)
	mustBuild(t, casStateful(t, store, t.TempDir()), edit)
	remoteDir := t.TempDir()
	rep = mustBuild(t, casStateful(t, store, remoteDir), edit)
	if rep.UnitsRemote != len(units) {
		t.Fatalf("%d of %d units adopted from the shared cache", rep.UnitsRemote, len(units))
	}
	if want := onDisk(remoteDir); rep.StateBytes != want || want == 0 {
		t.Fatalf("adopted states: StateBytes = %d, state files hold %d bytes", rep.StateBytes, want)
	}
}

// casStateful is a stateful builder over dir sharing store.
func casStateful(t *testing.T, store cas.Store, dir string) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: dir, Workers: 4, CAS: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// stateless is a shared cache that serves no dormancy state: it hides every
// blob of cas.KindState.
type stateless struct{ cas.Store }

func (s stateless) Get(key cas.Key) ([]byte, error) {
	data, err := s.Store.Get(key)
	if blob, derr := cas.DecodeBlob(data); err == nil && derr == nil && blob.Kind == cas.KindState {
		return nil, cas.ErrNotFound
	}
	return data, err
}

// TestRemoteHitKeepsLoadedState: a unit served from a shared cache that has
// no state for it keeps the state its worker loaded from the warm state
// directory, so an edit of the unit compiles warm, not cold.
func TestRemoteHitKeepsLoadedState(t *testing.T) {
	base := workload.Generate(obsProfile())
	units := base.Units()
	dir := t.TempDir()
	mustBuild(t, freshStateful(t, nil, dir, false), base)
	store := cas.NewMemCAS(0)
	mustBuild(t, casStateful(t, store, t.TempDir()), base)

	b := casStateful(t, stateless{store}, dir)
	rep := mustBuild(t, b, base)
	if rep.UnitsRemote != len(units) {
		t.Fatalf("%d of %d units fetched from the shared cache", rep.UnitsRemote, len(units))
	}
	_, raw := stateFiles(t, dir)
	onDisk := 0
	for _, data := range raw {
		onDisk += len(data)
	}
	if rep.StateBytes != onDisk {
		t.Errorf("StateBytes = %d after the remote build, the state files hold %d bytes", rep.StateBytes, onDisk)
	}

	// A comment changes the unit's bytes, not its IR: a warm unit skips.
	edit := base.Clone()
	edit[units[0]] = append(append([]byte(nil), base[units[0]]...), "\n// touched\n"...)
	rep = mustBuild(t, b, edit)
	ur := rep.Unit(units[0])
	if ur.Remote || len(ur.Passes) == 0 {
		t.Fatalf("the edited unit was not compiled: %+v", ur)
	}
	cold, skipped := 0, 0
	for _, row := range ur.Passes {
		cold += row.Cold
		skipped += row.Skipped
	}
	if cold != 0 || skipped == 0 {
		t.Errorf("the edited unit ran %d cold and skipped %d: the state the remote hit loaded was dropped", cold, skipped)
	}
}

package cas_test

// Crash-restart proofs: a server restarted over a DiskCAS tree accounts
// exactly what the blob tree holds (the two-client battery passes against
// the restarted server with 100% hits), and a tree a crash left torn
// converges: temp files swept, foreign files ignored, a poisoned blob
// dropped from the books at its first read.

import (
	"errors"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/workload"
)

// scanObjects sums the files under <dir>/objects from scratch: what the
// blob tree holds, counted without the store's code.
func scanObjects(t *testing.T, dir string) (files int, bytes int64) {
	t.Helper()
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, bytes
}

// TestServeRestartPersistence: client A populates a DiskCAS-backed server
// across a commit history; the server process "crashes" (is discarded)
// and a new one starts over the same tree. The restarted server's books
// must equal the dead server's and a from-scratch scan of objects/, every
// accounted blob must be served, and a fresh client B must then build
// every commit with zero local compiles — the two-client battery's
// contract, against a restarted server.
func TestServeRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	p := workload.QuickSuite()[0]
	snaps := oracletest.Stream(p, workload.StreamDefault, p.Seed*13, 3)

	srv1 := cas.NewServer(cas.NewDiskCAS(dir, nil), cas.ServerOptions{Metrics: obs.NewRegistry()})
	hs1 := httptest.NewServer(srv1.Handler())
	clientA := casClient(t, hs1.URL, compiler.ModeStateful)
	for i, snap := range snaps {
		if _, err := clientA.Build(snap); err != nil {
			t.Fatalf("commit %d: client A: %v", i, err)
		}
	}
	books1 := srv1.Accounting()
	hs1.Close() // the "crash": srv1's in-memory books are gone
	if len(books1) == 0 {
		t.Fatal("client A published nothing; the restart test has no state to recover")
	}

	// Restart: a brand-new server over the same disk tree. NewServer runs
	// the startup scan before serving.
	reg2 := obs.NewRegistry()
	srv2 := cas.NewServer(cas.NewDiskCAS(dir, nil), cas.ServerOptions{Metrics: reg2})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()

	books := srv2.Accounting()
	if !reflect.DeepEqual(books, books1) {
		t.Fatalf("restarted books diverged from the pre-crash books:\n got %v\nwant %v", books, books1)
	}
	files, total := scanObjects(t, dir)
	if got := bookedBytes(srv2); len(books) != files || got != total {
		t.Fatalf("books hold %d blobs, %d bytes; a scan of objects/ finds %d files, %d bytes", len(books), got, files, total)
	}
	for key, size := range books {
		if data, err := srv2.Get(key); err != nil || int64(len(data)) != size {
			t.Fatalf("accounted blob %s (%d bytes) not served: %d bytes, %v", key, size, len(data), err)
		}
	}
	if got := reg2.Snapshot()[obs.CtrCASRecoveredRefs]; got != int64(files) {
		t.Fatalf("%s = %d, want %d", obs.CtrCASRecoveredRefs, got, files)
	}
	if got := reg2.Snapshot()[obs.CtrCASRecoveredOrphans]; got != 0 {
		t.Fatalf("%s = %d on a cleanly shut-down tree, want 0", obs.CtrCASRecoveredOrphans, got)
	}

	// The two-client battery's contract against the restarted server: B
	// compiles nothing, ever, and matches the oracle at every commit.
	clientB := casClient(t, hs2.URL, compiler.ModeStateful)
	oracletest.Walk(t, snaps, oracletest.Reference(t, nil, snaps...), oracletest.Candidate{
		Name: "client B vs restarted server", Build: oracletest.Resident(clientB),
		Check: func(i int, rep *buildsys.Report) {
			if rep.UnitsCompiled != 0 {
				t.Fatalf("commit %d: client B compiled %d units against the restarted server (remote %d, cached %d)",
					i, rep.UnitsCompiled, rep.UnitsRemote, rep.UnitsCached)
			}
		},
	})
}

// TestRecoverTornState stages what a crash can leave on disk — temp files
// of a publish that never renamed, in the objects and the actions shards —
// beside a healthy blob, a file under objects/ whose name is not a key,
// and a poisoned blob, and proves the startup scan converges: the temps
// are swept, the foreign file is neither accounted nor touched, and the
// poisoned blob leaves the books at its first read.
func TestRecoverTornState(t *testing.T) {
	dir := t.TempDir()
	d := cas.NewDiskCAS(dir, nil)
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	goodData := []byte("published blob")
	goodKey := cas.Sum(goodData)
	if err := d.Put(goodKey, goodData); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "objects", goodKey.Shard())
	temps := []string{
		filepath.Join(shard, ".cas-crashed"),
		filepath.Join(dir, "actions", goodKey.Shard(), ".cas-crashed"),
	}
	for _, p := range temps {
		write(p, []byte("half-written"))
	}
	foreign := filepath.Join(shard, "zz-not-a-key")
	write(foreign, []byte("junk"))
	poisonKey := cas.Sum([]byte("the honest bytes"))
	write(filepath.Join(dir, "objects", poisonKey.Shard(), poisonKey.String()), []byte("other bytes"))

	reg := obs.NewRegistry()
	srv := cas.NewServer(d, cas.ServerOptions{Metrics: reg})

	for _, p := range temps {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("temp file %s survived the startup sweep", p)
		}
	}
	want := map[cas.Key]int64{goodKey: int64(len(goodData)), poisonKey: int64(len("other bytes"))}
	if got := srv.Accounting(); !reflect.DeepEqual(got, want) {
		t.Fatalf("books after the scan = %v, want %v", got, want)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("the scan touched a file that is not a blob: %v", err)
	}
	if m := reg.Snapshot(); m[obs.CtrCASRecoveredRefs] != 2 || m[obs.CtrCASRecoveredOrphans] != 2 {
		t.Fatalf("counters accounted/swept = %d/%d, want 2/2",
			m[obs.CtrCASRecoveredRefs], m[obs.CtrCASRecoveredOrphans])
	}

	if data, err := srv.Get(goodKey); err != nil || string(data) != string(goodData) {
		t.Fatalf("healthy blob unreadable after the scan: %v", err)
	}
	if _, err := srv.Get(poisonKey); !errors.Is(err, cas.ErrVerify) {
		t.Fatalf("poisoned blob read = %v, want ErrVerify", err)
	}
	want = map[cas.Key]int64{goodKey: int64(len(goodData))}
	if got := srv.Accounting(); !reflect.DeepEqual(got, want) {
		t.Fatalf("books after the poisoned read = %v, want %v", got, want)
	}
}

package cas_test

// Crash-restart recovery proofs: a server restarted over a DiskCAS tree
// rebuilds exactly the accounting the dead process held (the PR 9
// two-client battery passes against the restarted server with 100%
// hits), torn publish states recover to a consistent store, stale
// coalescing leases expire within the grace window, and the shutdown
// drain wakes every long-poll immediately.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/workload"
)

// TestServeRestartPersistence: client A populates a DiskCAS-backed server
// across a commit history; the server process "crashes" (is discarded)
// and a new one starts over the same tree. Recovery must rebuild the
// exact tenant accounting the dead server held, and a fresh client B must
// then build every commit with zero local compiles — the full PR 9
// battery contract, against a restarted server.
func TestServeRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	p := workload.QuickSuite()[0]
	snaps := oracletest.Stream(p, workload.StreamDefault, p.Seed*13, 3)

	reg1 := obs.NewRegistry()
	srv1 := cas.NewServer(cas.NewDiskCAS(dir, nil), cas.ServerOptions{Metrics: reg1})
	hs1 := httptest.NewServer(srv1.Handler())
	clientA := casClient(t, hs1.URL, "client-a")
	for i, snap := range snaps {
		if _, err := clientA.Build(snap); err != nil {
			t.Fatalf("commit %d: client A: %v", i, err)
		}
	}
	accounting1 := srv1.TenantAccounting()
	refs1 := srv1.GlobalRefs()
	hs1.Close() // the "crash": srv1's in-memory books are gone

	if len(accounting1["client-a"]) == 0 {
		t.Fatal("client A published nothing; the restart test has no state to recover")
	}

	// Restart: a brand-new server over the same disk tree. NewServer runs
	// recovery before serving.
	reg2 := obs.NewRegistry()
	srv2 := cas.NewServer(cas.NewDiskCAS(dir, nil), cas.ServerOptions{Metrics: reg2})
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()

	if got := srv2.TenantAccounting(); !reflect.DeepEqual(got, accounting1) {
		t.Fatalf("recovered tenant accounting diverged from the pre-crash books:\n got %v\nwant %v", got, accounting1)
	}
	if got := srv2.GlobalRefs(); !reflect.DeepEqual(got, refs1) {
		t.Fatalf("recovered global refcounts diverged:\n got %v\nwant %v", got, refs1)
	}
	wantRefs := int64(0)
	for _, m := range accounting1 {
		wantRefs += int64(len(m))
	}
	if got := reg2.Snapshot()[obs.CtrCASRecoveredRefs]; got != wantRefs {
		t.Fatalf("%s = %d, want %d", obs.CtrCASRecoveredRefs, got, wantRefs)
	}
	if got := reg2.Snapshot()[obs.CtrCASRecoveredOrphans]; got != 0 {
		t.Fatalf("%s = %d on a cleanly shut-down tree, want 0", obs.CtrCASRecoveredOrphans, got)
	}

	// The PR 9 battery contract against the restarted server: B compiles
	// nothing, ever, and matches the oracle at every commit.
	clientB := casClient(t, hs2.URL, "client-b")
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

// TestRecoverTornState stages every torn crash shape directly on disk —
// a healthy marker+blob pair, a marker whose blob never published, a blob
// nobody references, a malformed marker, and an orphaned temp file — and
// proves Recover() converges to exactly the from-scratch-scan state.
func TestRecoverTornState(t *testing.T) {
	dir := t.TempDir()
	d := cas.NewDiskCAS(dir, nil)

	// Healthy pair: marker written before blob, both present.
	goodKey, goodData := cas.Sum([]byte("published blob")), []byte("published blob")
	if err := d.WriteTenantRef("t1", goodKey, int64(len(goodData))); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(goodKey, goodData); err != nil {
		t.Fatal(err)
	}
	// Torn: the leader died after the marker, before the blob.
	lostKey := cas.Sum([]byte("never published"))
	if err := d.WriteTenantRef("t1", lostKey, 15); err != nil {
		t.Fatal(err)
	}
	// Torn the other way: a blob no marker references.
	strayKey, strayData := cas.Sum([]byte("unreferenced blob")), []byte("unreferenced blob")
	if err := d.Put(strayKey, strayData); err != nil {
		t.Fatal(err)
	}
	// A malformed marker (crash mid-write would have been swept as a temp
	// file; this models manual damage) and an orphaned temp file.
	shardDir := filepath.Dir(filepath.Join(dir, "tenants", "t1", goodKey.Shard(), goodKey.String()))
	if err := os.WriteFile(filepath.Join(shardDir, "zz-not-a-key"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	tempFile := filepath.Join(dir, "objects", ".cas-orphan")
	if err := os.MkdirAll(filepath.Dir(tempFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tempFile, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv := cas.NewServer(d, cas.ServerOptions{Metrics: reg, DisableRecovery: true})
	recovered, orphans := srv.Recover()

	if recovered != 1 {
		t.Fatalf("recovered %d refs, want 1 (the healthy pair)", recovered)
	}
	if orphans < 3 {
		t.Fatalf("recovered %d orphans, want >= 3 (lost marker, stray blob, malformed marker)", orphans)
	}
	// The store converged: the stray blob is gone, the healthy blob serves.
	if ok, _ := d.Has(strayKey); ok {
		t.Fatal("unreferenced blob survived recovery")
	}
	if data, err := srv.Get("t1", goodKey); err != nil || string(data) != string(goodData) {
		t.Fatalf("healthy blob unreadable after recovery: %v", err)
	}
	if _, err := os.Stat(tempFile); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived the startup sweep")
	}
	// The torn marker is gone from disk: a second recovery sees only the
	// healthy state.
	refs, dropped := d.LoadTenantRefs()
	if dropped != 0 {
		t.Fatalf("second scan dropped %d markers; recovery left damage behind", dropped)
	}
	if len(refs) != 1 || len(refs["t1"]) != 1 || refs["t1"][goodKey] != int64(len(goodData)) {
		t.Fatalf("marker tree after recovery = %v, want exactly the healthy pair", refs)
	}
	want := map[string]map[cas.Key]int64{"t1": {goodKey: int64(len(goodData))}}
	if got := srv.TenantAccounting(); !reflect.DeepEqual(got, want) {
		t.Fatalf("accounting = %v, want %v", got, want)
	}
	m := reg.Snapshot()
	if m[obs.CtrCASRecoveredRefs] != 1 || m[obs.CtrCASRecoveredOrphans] < 3 {
		t.Fatalf("counters refs/orphans = %d/%d, want 1/>=3",
			m[obs.CtrCASRecoveredRefs], m[obs.CtrCASRecoveredOrphans])
	}
}

// TestExpireStaleLeases: a leader that died holding a lease blocks
// waiters only until the janitor runs — under a fake clock, so the proof
// is that ExpireStaleLeases (not the waiter's own timeout, parked an
// hour out) did the waking.
func TestExpireStaleLeases(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{
		Metrics: reg, Now: clk.Now, LeaseGrace: time.Hour,
	})
	action := cas.Sum([]byte("stale action"))
	if res := srv.Lease(nil, action); !res.Leader {
		t.Fatalf("first lease = %+v, want leader", res)
	}
	woke := make(chan cas.LeaseResult, 1)
	go func() { woke <- srv.Lease(nil, action) }()
	// Wait for the waiter to actually join the flight.
	deadline := time.Now().Add(2 * time.Second)
	for srv.LeaseWaiters() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	clk.Advance(2 * time.Hour) // the leader is now long dead
	if n := srv.ExpireStaleLeases(); n != 1 {
		t.Fatalf("ExpireStaleLeases reaped %d flights, want 1", n)
	}
	select {
	case res := <-woke:
		if res.Found || res.Leader {
			t.Fatalf("expired-lease waiter got %+v, want a compile-locally verdict", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked after the stale lease expired")
	}
	if got := reg.Snapshot()[obs.CtrCASLeaseExpired]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrCASLeaseExpired, got)
	}
	// The flight is gone: the next lease elects a fresh leader.
	if res := srv.Lease(nil, action); !res.Leader {
		t.Fatalf("post-expiry lease = %+v, want a fresh leader", res)
	}
}

// TestDrainLeasesWakesWaiters: shutdown releases every long-poll at once.
func TestDrainLeasesWakesWaiters(t *testing.T) {
	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{LeaseGrace: time.Hour})
	a1, a2 := cas.Sum([]byte("drain-1")), cas.Sum([]byte("drain-2"))
	if res := srv.Lease(nil, a1); !res.Leader {
		t.Fatal("a1: want leader")
	}
	if res := srv.Lease(nil, a2); !res.Leader {
		t.Fatal("a2: want leader")
	}
	woke := make(chan cas.LeaseResult, 2)
	go func() { woke <- srv.Lease(nil, a1) }()
	go func() { woke <- srv.Lease(nil, a2) }()
	deadline := time.Now().Add(2 * time.Second)
	for srv.LeaseWaiters() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.DrainLeases(); n != 2 {
		t.Fatalf("DrainLeases released %d flights, want 2", n)
	}
	for i := 0; i < 2; i++ {
		select {
		case res := <-woke:
			if res.Found || res.Leader {
				t.Fatalf("drained waiter got %+v, want compile-locally", res)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a waiter is still blocked after DrainLeases")
		}
	}
}

package cas_test

// Fleet coalescing under real concurrency (run under -race via
// `make cas-battery` / `make race`): 16 builders hit one serve instance
// cold and simultaneously. Request coalescing must elect exactly one
// compile leader per unit — the fleet compiles each unit exactly once in
// total — every builder links the identical program, and no store write is
// torn (every blob still verifies afterwards).

import (
	"sync"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/workload"
)

func TestFleetCoalescing(t *testing.T) {
	snap := workload.Generate(workload.QuickSuite()[0])
	oracle := oracletest.Reference(t, nil, snap)[0]

	reg := obs.NewRegistry()
	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Metrics: reg})

	const fleet = 16
	builders := make([]*buildsys.Builder, fleet)
	for i := range builders {
		// In-process store handles so all 16 leases contend on the same
		// flight table without HTTP latency masking the races.
		b, err := buildsys.NewBuilder(buildsys.Options{
			Mode: compiler.ModeStateless, CAS: srv.Local("fleet"),
		})
		if err != nil {
			t.Fatal(err)
		}
		builders[i] = b
	}

	gate := make(chan struct{})
	var wg sync.WaitGroup
	reports := make([]*buildsys.Report, fleet)
	errs := make([]error, fleet)
	for i, b := range builders {
		wg.Add(1)
		go func(i int, b *buildsys.Builder) {
			defer wg.Done()
			<-gate
			rep, err := b.Build(snap)
			reports[i], errs[i] = rep, err
		}(i, b)
	}
	close(gate)
	wg.Wait()

	compiled := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		compiled += reports[i].UnitsCompiled
		if d := oracle.Diff(reports[i].Program); d != "" {
			t.Fatalf("builder %d's output diverged from the fleet oracle: %s", i, d)
		}
	}
	// Exactly-once compilation across the whole fleet: the lease pre-check
	// and publish both happen under the flight-table lock, so a second
	// leader for an already-published action is impossible.
	if compiled != len(snap) {
		t.Fatalf("fleet compiled %d unit-builds for %d units, want exactly one compile per unit", compiled, len(snap))
	}
	m := reg.Snapshot()
	if got := m[obs.CtrCASPublished]; got != int64(len(snap)) {
		t.Fatalf("%s = %d, want %d (one publish per unit)", obs.CtrCASPublished, got, len(snap))
	}
	// Every non-leader either coalesced onto the leader's flight or arrived
	// after publish and took a plain hit; nothing recompiled, nothing failed
	// verification.
	if hits, co := m[obs.CtrCASHits], m[obs.CtrCASCoalesced]; hits+co < int64((fleet-1)*len(snap)) {
		t.Fatalf("hits %d + coalesced %d cover fewer than the %d non-leader fetches",
			hits, co, (fleet-1)*len(snap))
	}
	if got := m[obs.CtrCASVerifyFailed]; got != 0 {
		t.Fatalf("%s = %d under concurrent publish, want 0 (torn write?)", obs.CtrCASVerifyFailed, got)
	}

	// No torn store writes: every blob the fleet left behind still verifies.
	keys := mem.Keys()
	if len(keys) != len(snap) {
		t.Fatalf("store holds %d blobs for %d units", len(keys), len(snap))
	}
	for _, k := range keys {
		if _, err := mem.Get(k); err != nil {
			t.Fatalf("blob %s does not verify after the fleet run: %v", k, err)
		}
	}
}

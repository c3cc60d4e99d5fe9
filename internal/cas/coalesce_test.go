package cas_test

// A cold fleet under real concurrency (run under -race via
// `make cas-battery` / `make race`): 16 builders hit one server cold and
// simultaneously, each free to compile and publish any unit the store does
// not have yet. Every builder must link the oracle's program, content
// addressing must coalesce the identical publishes into one blob per
// distinct object, and no store write may be torn (every blob still
// verifies afterwards).

import (
	"sync"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/workload"
)

func TestFleetCoalescing(t *testing.T) {
	snap := workload.Generate(workload.QuickSuite()[0])
	oracle := oracletest.Reference(t, nil, snap)[0]

	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{})

	const fleet = 16
	builders := make([]*buildsys.Builder, fleet)
	for i := range builders {
		// The server in-process, so all 16 builders contend on its lock
		// and its store without HTTP latency masking the races.
		b, err := buildsys.NewBuilder(buildsys.Options{
			Mode: compiler.ModeStateless, CAS: srv,
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

	for i, err := range errs {
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		if d := oracle.Diff(reports[i].Program); d != "" {
			t.Fatalf("builder %d's output diverged from the fleet oracle: %s", i, d)
		}
	}

	// No torn store writes: every blob the fleet left behind still verifies.
	keys := mem.Keys()
	if len(keys) != len(snap) {
		t.Fatalf("store holds %d blobs for %d units' objects, want one per object", len(keys), len(snap))
	}
	for _, k := range keys {
		if _, err := mem.Get(k); err != nil {
			t.Fatalf("blob %s does not verify after the fleet run: %v", k, err)
		}
	}
}

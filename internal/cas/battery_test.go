package cas_test

// The multi-client differential battery — the shared cache's acceptance
// proof. Two independent stateful builders (separate state dirs) share one
// CAS over real HTTP. Client A builds each commit first
// and publishes; client B must then build the same commit with ZERO local
// compiles — everything served from the shared cache or its own warm state
// — and its linked output must be byte-identical (by disassembly) to a
// stateless from-scratch oracle at every commit.
//
// The adversarial case: every blob in the store is poisoned (one byte
// flipped) between A's publish and B's fetch. B must detect every
// corruption (verify-failure counters), recompile locally, and still match
// the oracle — a poisoned blob is never served.

import (
	"net/http/httptest"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/workload"
)

// casClient builds a builder under mode wired to the shared cache at url
// with its own private state directory.
func casClient(t *testing.T, url string, mode compiler.Mode) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode:     mode,
		StateDir: t.TempDir(),
		CAS:      cas.NewHTTPCAS(url, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTwoClientBattery(t *testing.T) {
	profiles := workload.QuickSuite()
	if !testing.Short() {
		profiles = append(profiles, workload.StandardSuite()[3]) // netstack
	}
	streams := []workload.StreamKind{
		workload.StreamDefault, workload.StreamRenameWave, workload.StreamInterfaceChurn,
	}
	for _, p := range profiles {
		for _, kind := range streams {
			p, kind := p, kind
			t.Run(p.Name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				stream := oracletest.Stream(p, kind, p.Seed*13, 4)

				reg := obs.NewRegistry()
				srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: reg})
				hs := httptest.NewServer(srv.Handler())
				defer hs.Close()

				// A is a resident stateful builder, B runs Records alone,
				// as a one-shot minibuild does: replay changes no byte
				// that leaves the process, so both key their actions alike.
				clientA := casClient(t, hs.URL, compiler.ModeStateful)
				clientB := casClient(t, hs.URL, core.Records)

				oracletest.Walk(t, stream, oracletest.Reference(t, nil, stream...),
					oracletest.Candidate{Name: "client A", Build: oracletest.Resident(clientA)},
					oracletest.Candidate{Name: "client B", Build: oracletest.Resident(clientB),
						Check: func(i int, repB *buildsys.Report) {
							// A published every unit it compiled before B started, so
							// B never compiles: every local miss is a verified remote
							// hit. This is the cross-client reuse claim, per commit.
							if repB.UnitsCompiled != 0 {
								t.Fatalf("commit %d: client B compiled %d units despite A publishing first (remote %d, cached %d)",
									i, repB.UnitsCompiled, repB.UnitsRemote, repB.UnitsCached)
							}
							if i == 0 && repB.UnitsRemote != len(stream[0]) {
								t.Fatalf("cold client B served %d of %d units remotely", repB.UnitsRemote, len(stream[0]))
							}
							for _, w := range repB.Warnings {
								if strings.Contains(w, "cas:") {
									t.Fatalf("commit %d: clean battery run produced a cas warning: %s", i, w)
								}
							}
						}})

				// Client-side and server-side books agree on a healthy run.
				mB := clientB.Metrics()
				if mB[obs.CtrCASHits] == 0 {
					t.Fatal("client B recorded zero shared-cache hits across the battery")
				}
				if mB[obs.CtrCASVerifyFailed] != 0 {
					t.Fatalf("client B recorded %d verify failures on an unpoisoned store", mB[obs.CtrCASVerifyFailed])
				}
				ms := reg.Snapshot()
				if ms[obs.CtrCASVerifyFailed] != 0 {
					t.Fatalf("server recorded %d verify failures on an unpoisoned store", ms[obs.CtrCASVerifyFailed])
				}
				if ms[obs.CtrCASPublished] == 0 {
					t.Fatal("server recorded zero publishes; A never shared anything")
				}
			})
		}
	}
}

// TestPoisonedBlobNeverServed flips one byte of EVERY stored blob between
// A's publish and B's build. B must reject every blob, recompile all units
// locally, and still match the oracle exactly.
func TestPoisonedBlobNeverServed(t *testing.T) {
	p := workload.QuickSuite()[0]
	snap := workload.Generate(p)
	oracle := oracletest.Reference(t, nil, snap)[0]

	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Metrics: obs.NewRegistry()})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Stateless publishers/consumers: exactly one object blob per unit, no
	// state blobs, so the bookkeeping below is exact.
	a, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateless, CAS: cas.NewHTTPCAS(hs.URL, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Build(snap); err != nil {
		t.Fatal(err)
	}
	keys := mem.Keys()
	if len(keys) != len(snap) {
		t.Fatalf("store holds %d blobs after publishing %d units", len(keys), len(snap))
	}
	for _, k := range keys {
		if !mem.Tamper(k, func(data []byte) { data[len(data)/2] ^= 0x40 }) {
			t.Fatalf("blob %s vanished before tampering", k)
		}
	}

	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateless, CAS: cas.NewHTTPCAS(hs.URL, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnitsRemote != 0 {
		t.Fatalf("%d poisoned units served as remote hits", rep.UnitsRemote)
	}
	if rep.UnitsCompiled != len(snap) {
		t.Fatalf("client B compiled %d of %d units; the rest came from a poisoned store", rep.UnitsCompiled, len(snap))
	}
	if d := oracle.Diff(rep.Program); d != "" {
		t.Fatalf("client B's output diverged from the oracle after rejecting the poisoned store: %s", d)
	}
	m := b.Metrics()
	if m[obs.CtrCASVerifyFailed] < int64(len(snap)) {
		t.Fatalf("client B detected %d poisoned blobs, want at least %d", m[obs.CtrCASVerifyFailed], len(snap))
	}
	warned := false
	for _, w := range rep.Warnings {
		if strings.Contains(w, "poisoned blob rejected") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no poisoned-blob warning surfaced: %v", rep.Warnings)
	}

	// The store self-healed (poisoned blobs dropped on first verify) and B
	// republished honest objects: a third client now gets clean remote hits.
	c, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateless, CAS: cas.NewHTTPCAS(hs.URL, ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	repC, err := c.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	if repC.UnitsRemote != len(snap) {
		t.Fatalf("after healing, client C got %d of %d units remotely", repC.UnitsRemote, len(snap))
	}
	if d := oracle.Diff(repC.Program); d != "" {
		t.Fatalf("client C's output diverged from the oracle: %s", d)
	}
}

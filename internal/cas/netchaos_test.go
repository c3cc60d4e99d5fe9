package cas_test

// The partition battery — the network-adversity acceptance proof. Phase 1
// records every client↔server exchange of a clean two-client shared-cache
// run (publisher A, consumer B) with pure-recorder FaultTransports. Phase
// 2 then replays the run once per (exchange × applicable fault kind) —
// refused connections, mid-body hangups, latency spikes, stalls,
// truncation, bit flips, 5xx bursts — against a fresh server, failing
// exactly that one exchange. Every single case must end with BOTH builds
// succeeding and linking byte-identical to the stateless oracle, within
// the deadline budgets; degradation may only surface as warnings and
// counters, never as a wrong or failed build.

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	"statefulcc/internal/faults"
	"statefulcc/internal/faults/chaostest"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
)

// The battery reuses chaos_test.go's chaosSnap two-unit workload.

// chaosOpts are the battery's client options: tight budgets so a single
// stalled exchange costs a bounded slice of the case, fast backoff, and a
// transport to inject through.
func chaosOpts(ft *cas.FaultTransport) cas.HTTPOptions {
	return cas.HTTPOptions{
		Transport:   ft,
		Backoff:     2 * time.Millisecond,
		FetchBudget: 300 * time.Millisecond,
	}
}

// chaosBuilder is a stateless builder (no local warm state, so every
// remote degradation is fully exercised) wired through ft.
func chaosBuilder(t *testing.T, url string, ft *cas.FaultTransport) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateless,
		CAS:  cas.NewHTTPCASOpts(url, "", chaosOpts(ft)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// netChaosCase is one battery entry: fail `call` on `owner`'s transport
// with `kind`.
type netChaosCase struct {
	owner string // "A" or "B"
	call  faults.Call
	kind  cas.NetFault
}

// applicable reports whether kind can meaningfully fire on call c, as ft
// recorded it: body kinds need a recorded 2xx body, and silent-corruption
// kinds (truncate, bitflip) additionally need the client to *read* that
// body — PUT responses are discarded, so corrupting them observably changes
// nothing.
func applicable(ft *cas.FaultTransport, c faults.Call, kind cas.NetFault) bool {
	if !kind.BodyFault() {
		return true
	}
	if status, size := ft.Response(c); status < 200 || status >= 300 || size == 0 {
		return false
	}
	if kind == cas.NetTruncate || kind == cas.NetBitFlip {
		return c.Op == "GET"
	}
	return true
}

func TestPartitionBattery(t *testing.T) {
	snap := chaosSnap()
	oracle := oracletest.Reference(t, nil, snap)[0]

	// Phase 1: record the clean exchange space.
	recSrv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: obs.NewRegistry()})
	recHS := httptest.NewServer(recSrv.Handler())
	ftA := cas.NewFaultTransport(nil)
	ftB := cas.NewFaultTransport(nil)
	if _, err := chaosBuilder(t, recHS.URL, ftA).Build(snap); err != nil {
		t.Fatalf("clean run, client A: %v", err)
	}
	if _, err := chaosBuilder(t, recHS.URL, ftB).Build(snap); err != nil {
		t.Fatalf("clean run, client B: %v", err)
	}
	recHS.Close()
	callsA, callsB := ftA.Calls(), ftB.Calls()
	if len(callsA) == 0 || len(callsB) == 0 {
		t.Fatalf("clean run recorded %d/%d exchanges for A/B; the battery has nothing to fail", len(callsA), len(callsB))
	}

	// Enumerate exchange × kind.
	var cases []netChaosCase
	for _, side := range []struct {
		owner string
		ft    *cas.FaultTransport
	}{{"A", ftA}, {"B", ftB}} {
		for _, c := range chaostest.Points(side.ft.Calls()) {
			for _, k := range cas.NetFaultKinds {
				if applicable(side.ft, c, k) {
					cases = append(cases, netChaosCase{side.owner, c, k})
				}
			}
		}
	}
	t.Logf("partition battery: %d exchanges (A %d, B %d) -> %d cases",
		len(callsA)+len(callsB), len(callsA), len(callsB), len(cases))

	for _, tc := range cases {
		tc := tc
		name := tc.owner + "/" + strings.ReplaceAll(cas.NetName(tc.call), "/", "_") + "/" + tc.kind.String()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: obs.NewRegistry()})
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()

			rule := cas.NetRule{
				Method: string(tc.call.Op), Path: tc.call.Path,
				Nth: tc.call.N, Kind: tc.kind,
			}
			var ruleA, ruleB []cas.NetOption
			opt := []cas.NetOption{cas.WithNetRules(rule), cas.WithNetLatency(40 * time.Millisecond)}
			if tc.owner == "A" {
				ruleA = opt
			} else {
				ruleB = opt
			}
			caseFTA := cas.NewFaultTransport(nil, ruleA...)
			caseFTB := cas.NewFaultTransport(nil, ruleB...)
			builderA := chaosBuilder(t, hs.URL, caseFTA)
			builderB := chaosBuilder(t, hs.URL, caseFTB)

			start := time.Now()
			repA, err := builderA.Build(snap)
			if err != nil {
				t.Fatalf("client A failed under %s on %s: %v", tc.kind, tc.call, err)
			}
			repB, err := builderB.Build(snap)
			if err != nil {
				t.Fatalf("client B failed under %s on %s: %v", tc.kind, tc.call, err)
			}
			elapsed := time.Since(start)

			if d := oracle.Diff(repA.Program); d != "" {
				t.Errorf("client A's output diverged from the oracle under %s on %s: %s", tc.kind, tc.call, d)
			}
			if d := oracle.Diff(repB.Program); d != "" {
				t.Errorf("client B's output diverged from the oracle under %s on %s: %s", tc.kind, tc.call, d)
			}
			if elapsed >= 5*time.Second {
				t.Errorf("case took %v; the budgets should bound any single fault well under 5s", elapsed)
			}

			// The fault must actually have fired on the owning transport.
			owner := caseFTA
			if tc.owner == "B" {
				owner = caseFTB
			}
			chaostest.AssertFired(t, owner.Log, tc.call)
			// Failure kinds must be visible in the degradation books (a
			// latency spike is not a failure and may pass silently).
			if tc.kind != cas.NetLatency {
				mA, mB := builderA.Metrics(), builderB.Metrics()
				degraded := int64(0)
				for _, m := range []map[string]int64{mA, mB} {
					degraded += m[obs.CtrCASNetErrors] + m[obs.CtrCASRetries] +
						m[obs.CtrCASBreakerOpen] + m[obs.CtrCASVerifyFailed] + m[obs.CtrCASIOErrors]
				}
				if degraded == 0 {
					t.Errorf("injected %s on %s left no trace in the degradation counters", tc.kind, tc.call)
				}
			}
		})
	}
}

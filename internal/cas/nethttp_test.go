package cas_test

// HTTPCAS network-adversity proofs at the client seam: the strict retry
// taxonomy (service verdicts are final on the first answer; only
// transport-class failures re-send), deadline budgets bounding stalls,
// and the full breaker lifecycle —
// trip, fast-fail, probe, recovery — driven end to end through real HTTP
// exchanges with a deterministic fault schedule and an injected clock.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/faults"
	"statefulcc/internal/obs"
)

// newCASBackend spins up a real cas.Server over MemCAS and returns its
// base URL plus the underlying store for tampering.
func newCASBackend(t *testing.T) (string, *cas.MemCAS) {
	t.Helper()
	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Metrics: obs.NewRegistry()})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs.URL, mem
}

// exchangesFor counts logged exchanges whose path matches pred.
func exchangesFor(ft *cas.FaultTransport, method, path string) int {
	n := 0
	for _, c := range ft.Calls() {
		if c.Op == faults.Op(method) && c.Path == path {
			n++
		}
	}
	return n
}

// TestHTTPCASVerdictsAreFinal: 404 misses, 410 verify refusals, and
// malformed action payloads each settle in exactly one wire exchange —
// none of them burns the retry budget.
func TestHTTPCASVerdictsAreFinal(t *testing.T) {
	url, mem := newCASBackend(t)
	ft := cas.NewFaultTransport(nil) // pure recorder
	reg := obs.NewRegistry()
	h := cas.NewHTTPCASOpts(url, "", cas.HTTPOptions{Transport: ft, Backoff: time.Millisecond})
	h.SetMetrics(reg)

	// 404 miss.
	missKey := cas.Sum([]byte("absent"))
	if _, err := h.Get(missKey); !errors.Is(err, cas.ErrNotFound) {
		t.Fatalf("miss: err = %v, want ErrNotFound", err)
	}
	if n := exchangesFor(ft, "GET", "/cas/blob/"+missKey.String()); n != 1 {
		t.Fatalf("404 miss took %d exchanges, want 1", n)
	}

	// 410: the server refuses a blob whose stored bytes fail verification.
	key, data := cas.Sum([]byte("poisoned blob")), []byte("poisoned blob")
	if err := h.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if !mem.Tamper(key, func(b []byte) { b[0] ^= 0xFF }) {
		t.Fatal("tamper failed")
	}
	if _, err := h.Get(key); !errors.Is(err, cas.ErrVerify) {
		t.Fatalf("poisoned: err = %v, want ErrVerify", err)
	}
	if n := exchangesFor(ft, "GET", "/cas/blob/"+key.String()); n != 1 {
		t.Fatalf("410 refusal took %d exchanges, want 1", n)
	}

	// Malformed action payload (a 200 whose body does not parse as a key):
	// detected locally, classified ErrVerify, still final.
	action := cas.Sum([]byte("action"))
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("certainly-not-a-key\n"))
	}))
	defer bad.Close()
	ftBad := cas.NewFaultTransport(nil)
	hBad := cas.NewHTTPCASOpts(bad.URL, "", cas.HTTPOptions{Transport: ftBad, Backoff: time.Millisecond})
	if _, err := hBad.ActionGet(action); !errors.Is(err, cas.ErrVerify) {
		t.Fatalf("malformed action: err = %v, want ErrVerify", err)
	}
	if n := exchangesFor(ftBad, "GET", "/cas/action/"+action.String()); n != 1 {
		t.Fatalf("malformed action took %d exchanges, want 1", n)
	}

	if reg.Snapshot()[obs.CtrCASRetries] != 0 {
		t.Fatalf("service verdicts burned %d retries, want 0", reg.Snapshot()[obs.CtrCASRetries])
	}
}

// TestHTTPCASRetries5xx: 5xx responses are retryable and consume the full
// budget — one initial attempt plus Retries re-sends.
func TestHTTPCASRetries5xx(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	ft := cas.NewFaultTransport(nil)
	reg := obs.NewRegistry()
	h := cas.NewHTTPCASOpts(bad.URL, "", cas.HTTPOptions{Transport: ft, Backoff: time.Millisecond})
	h.SetMetrics(reg)
	key := cas.Sum([]byte("x"))
	_, err := h.Get(key)
	if err == nil || errors.Is(err, cas.ErrNotFound) {
		t.Fatalf("all-503 Get: err = %v, want a surfaced 5xx failure", err)
	}
	if n := exchangesFor(ft, "GET", "/cas/blob/"+key.String()); n != 3 {
		t.Fatalf("all-503 Get took %d exchanges, want 3 (1 + 2 retries)", n)
	}
	m := reg.Snapshot()
	if m[obs.CtrCASRetries] != 2 {
		t.Fatalf("cas.retry = %d, want 2", m[obs.CtrCASRetries])
	}
	if m[obs.CtrCASNetErrors] != 3 {
		t.Fatalf("cas.net_error = %d, want 3", m[obs.CtrCASNetErrors])
	}
}

// TestHTTPCASBudgetBoundsStall: an indefinitely stalled exchange costs at
// most the fetch budget, and a blown deadline does not re-send (the
// budget is already gone).
func TestHTTPCASBudgetBoundsStall(t *testing.T) {
	url, _ := newCASBackend(t)
	ft := cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{
		Method: http.MethodGet, Kind: cas.NetStall,
	}))
	h := cas.NewHTTPCASOpts(url, "", cas.HTTPOptions{
		Transport: ft, FetchBudget: 150 * time.Millisecond, Backoff: time.Millisecond,
	})
	key := cas.Sum([]byte("stalled"))
	start := time.Now()
	_, err := h.Get(key)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled Get succeeded")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("stalled Get took %v, want bounded by the 150ms budget", elapsed)
	}
	if n := exchangesFor(ft, "GET", "/cas/blob/"+key.String()); n != 1 {
		t.Fatalf("blown budget re-sent: %d exchanges, want 1", n)
	}
}

// TestHTTPCASBreakerLifecycle drives the breaker through its whole life
// over real HTTP: five refused exchanges trip it — a refused dial is a
// definite answer, so each Get makes one and none is retried — open
// requests fast-fail without touching the wire, the cooldown admits a
// single probe, and the probe's success restores full service — all
// deterministic under the injected clock and visible in the metrics
// registry.
func TestHTTPCASBreakerLifecycle(t *testing.T) {
	url, _ := newCASBackend(t)
	key, data := cas.Sum([]byte("lifecycle blob")), []byte("lifecycle blob")

	clock := newFakeClock()
	var tl transitionLog
	// The first five GETs of the blob are refused; everything after (and
	// the setup PUT) is clean.
	ft := cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{
		Method: http.MethodGet, Path: "/cas/blob/*", Nth: 1, Count: 5, Kind: cas.NetRefused,
	}))
	reg := obs.NewRegistry()
	h := cas.NewHTTPCASOpts(url, "", cas.HTTPOptions{
		Transport: ft, Backoff: time.Millisecond,
		Breaker: cas.BreakerOptions{Now: clock.Now, OnTransition: tl.hook},
	})
	h.SetMetrics(reg)
	if err := h.Put(key, data); err != nil {
		t.Fatal(err)
	}

	// Gets #1-#4: one refused exchange each, no retry; consec = 4.
	for i := 1; i <= 4; i++ {
		if _, err := h.Get(key); !errors.Is(err, cas.ErrNetInjected) || !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("Get #%d: err = %v, want injected refusal", i, err)
		}
		if n := exchangesFor(ft, "GET", "/cas/blob/"+key.String()); n != i {
			t.Fatalf("Get #%d: %d wire exchanges so far, want %d (a refusal is not retried)", i, n, i)
		}
	}
	if got := h.BreakerState(); got != cas.BreakerClosed {
		t.Fatalf("state after 4 failures = %v, want closed", got)
	}

	// Get #5: the 5th refusal trips the breaker; the Get reports the
	// refusal itself, since nothing is retried onto the open breaker.
	if _, err := h.Get(key); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("Get #5: err = %v, want the refusal that tripped the breaker", err)
	}
	if got := h.BreakerState(); got != cas.BreakerOpen {
		t.Fatalf("state after 5 failures = %v, want open", got)
	}
	wire := exchangesFor(ft, "GET", "/cas/blob/"+key.String())
	if wire != 5 {
		t.Fatalf("wire exchanges before fast-fail = %d, want 5", wire)
	}

	// Get #6 (cooldown not elapsed): pure fast-fail, zero wire traffic.
	if _, err := h.Get(key); !errors.Is(err, cas.ErrUnavailable) {
		t.Fatalf("Get #6: err = %v, want ErrUnavailable", err)
	}
	if n := exchangesFor(ft, "GET", "/cas/blob/"+key.String()); n != wire {
		t.Fatalf("open breaker touched the wire: %d exchanges, had %d", n, wire)
	}

	// Cooldown elapses: the next Get is the probe, the backend is healthy
	// again (the rule's window is spent), and service is restored.
	clock.Advance(3 * time.Second)
	got, err := h.Get(key)
	if err != nil {
		t.Fatalf("probe Get failed: %v", err)
	}
	if string(got) != string(data) {
		t.Fatalf("probe Get returned wrong bytes: %q", got)
	}
	if state := h.BreakerState(); state != cas.BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", state)
	}

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if gotTL := tl.snapshot(); !equalStrings(gotTL, want) {
		t.Fatalf("transitions = %v, want %v", gotTL, want)
	}
	m := reg.Snapshot()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{obs.CtrCASBreakerTrips, m[obs.CtrCASBreakerTrips], 1},
		{obs.CtrCASBreakerProbes, m[obs.CtrCASBreakerProbes], 1},
		{obs.CtrCASBreakerRecovered, m[obs.CtrCASBreakerRecovered], 1},
		{obs.CtrCASNetErrors, m[obs.CtrCASNetErrors], 5},
		{obs.CtrCASRetries, m[obs.CtrCASRetries], 0},
		{obs.CtrCASBreakerOpen, m[obs.CtrCASBreakerOpen], 1},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestHTTPCASRetriesHangup: a failure in the middle of an exchange — the
// peer hung up mid-body — is re-sent after a backoff, unlike a refused dial
// (TestHTTPCASBreakerLifecycle): two hangups, then the third exchange
// answers. Each hangup counts as a network error, and so against the
// breaker.
func TestHTTPCASRetriesHangup(t *testing.T) {
	url, _ := newCASBackend(t)
	key, data := cas.Sum([]byte("retry blob")), []byte("retry blob")
	ft := cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{
		Method: http.MethodGet, Path: "/cas/blob/*", Nth: 1, Count: 2, Kind: cas.NetHangup,
	}))
	reg := obs.NewRegistry()
	h := cas.NewHTTPCASOpts(url, "", cas.HTTPOptions{Transport: ft, Backoff: time.Millisecond})
	h.SetMetrics(reg)
	if err := h.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if got, err := h.Get(key); err != nil || string(got) != string(data) {
		t.Fatalf("Get = %q, %v; want the blob after the retries", got, err)
	}
	if n := exchangesFor(ft, "GET", "/cas/blob/"+key.String()); n != 3 {
		t.Errorf("%d exchanges, want 3", n)
	}
	m := reg.Snapshot()
	if m[obs.CtrCASRetries] != 2 {
		t.Errorf("cas.retry = %d, want 2", m[obs.CtrCASRetries])
	}
	if m[obs.CtrCASNetErrors] != 2 {
		t.Errorf("cas.net_error = %d, want 2", m[obs.CtrCASNetErrors])
	}
}

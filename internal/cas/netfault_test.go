package cas_test

// FaultTransport unit proofs: every fault kind observably breaks an
// exchange the advertised way, rules fire on exactly the (method, path,
// nth) identities they name, and a seeded schedule replays byte-for-byte
// — the determinism the partition battery stands on.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/faults"
)

const faultEchoBody = "0123456789abcdef0123456789abcdef"

// newEchoServer serves a fixed body on every path.
func newEchoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, faultEchoBody)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// fetch issues one GET through the client and fully reads the body,
// returning the body, status, and the first error encountered.
func fetch(ctx context.Context, client *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func TestFaultTransportKinds(t *testing.T) {
	srv := newEchoServer(t)
	for _, kind := range cas.NetFaultKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			ft := cas.NewFaultTransport(nil,
				cas.WithNetRules(cas.NetRule{Kind: kind}),
				cas.WithNetLatency(60*time.Millisecond))
			client := &http.Client{Transport: ft}
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			start := time.Now()
			data, status, err := fetch(ctx, client, srv.URL+"/cas/blob/deadbeef")
			elapsed := time.Since(start)

			switch kind {
			case cas.NetRefused:
				if !errors.Is(err, cas.ErrNetInjected) {
					t.Fatalf("refused: err = %v, want ErrNetInjected", err)
				}
			case cas.NetHangup:
				// Status arrives clean; the body read fails partway.
				if status != http.StatusOK {
					t.Fatalf("hangup: status = %d, want 200", status)
				}
				if !errors.Is(err, cas.ErrNetInjected) {
					t.Fatalf("hangup: read err = %v, want ErrNetInjected", err)
				}
				if len(data) == 0 || len(data) >= len(faultEchoBody) {
					t.Fatalf("hangup delivered %d bytes, want a strict partial of %d", len(data), len(faultEchoBody))
				}
			case cas.NetLatency:
				if err != nil || string(data) != faultEchoBody {
					t.Fatalf("latency: err=%v body=%q, want clean echo", err, data)
				}
				if elapsed < 60*time.Millisecond {
					t.Fatalf("latency spike took %v, want >= 60ms", elapsed)
				}
			case cas.NetStall:
				if err == nil {
					t.Fatal("stall: exchange succeeded, want context-bounded failure")
				}
				if elapsed >= 2*time.Second {
					t.Fatalf("stall outlived the context: %v", elapsed)
				}
			case cas.NetTruncate:
				if err != nil {
					t.Fatalf("truncate: err = %v, want clean EOF", err)
				}
				if len(data) != len(faultEchoBody)/2 {
					t.Fatalf("truncate delivered %d bytes, want %d", len(data), len(faultEchoBody)/2)
				}
			case cas.NetBitFlip:
				if err != nil {
					t.Fatalf("bitflip: err = %v", err)
				}
				if len(data) != len(faultEchoBody) {
					t.Fatalf("bitflip changed the length: %d vs %d", len(data), len(faultEchoBody))
				}
				if string(data) == faultEchoBody {
					t.Fatal("bitflip delivered pristine bytes")
				}
				diff := 0
				for i := range data {
					if data[i] != faultEchoBody[i] {
						diff++
					}
				}
				if diff != 1 {
					t.Fatalf("bitflip changed %d bytes, want exactly 1", diff)
				}
			case cas.Net5xx:
				if err != nil {
					t.Fatalf("5xx: err = %v, want synthesized response", err)
				}
				if status != http.StatusServiceUnavailable {
					t.Fatalf("5xx: status = %d, want 503", status)
				}
			}
			if inj := ft.Injected(); len(inj) != 1 {
				t.Fatalf("Injected() logged %d exchanges, want 1", len(inj))
			}
		})
	}
}

// TestFaultTransportRuleNthCount: a {Nth: 2, Count: 2} rule skips the
// first matching exchange, fails the 2nd and 3rd, and lets the 4th pass.
func TestFaultTransportRuleNthCount(t *testing.T) {
	srv := newEchoServer(t)
	ft := cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{
		Method: http.MethodGet, Path: "/cas/blob/*", Nth: 2, Count: 2, Kind: cas.NetRefused,
	}))
	client := &http.Client{Transport: ft}
	ctx := context.Background()
	wantFail := []bool{false, true, true, false}
	for i, fail := range wantFail {
		_, _, err := fetch(ctx, client, srv.URL+"/cas/blob/k")
		if fail && !errors.Is(err, cas.ErrNetInjected) {
			t.Fatalf("exchange %d: err = %v, want injected refusal", i+1, err)
		}
		if !fail && err != nil {
			t.Fatalf("exchange %d: err = %v, want clean", i+1, err)
		}
	}
	// A non-matching path never fires even while the rule window is open.
	if _, _, err := fetch(ctx, client, srv.URL+"/cas/action/k"); err != nil {
		t.Fatalf("non-matching path faulted: %v", err)
	}
	if inj := ft.Injected(); len(inj) != 2 {
		t.Fatalf("injected %d exchanges, want 2", len(inj))
	}
}

// TestFaultTransportCallLog: the exchange log carries replay-stable
// (method, path, N) identities plus the clean response shape.
func TestFaultTransportCallLog(t *testing.T) {
	srv := newEchoServer(t)
	ft := cas.NewFaultTransport(nil)
	client := &http.Client{Transport: ft}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, _, err := fetch(ctx, client, srv.URL+"/cas/blob/a"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := fetch(ctx, client, srv.URL+"/cas/blob/b"); err != nil {
		t.Fatal(err)
	}
	calls := ft.Calls()
	if len(calls) != 3 {
		t.Fatalf("logged %d calls, want 3", len(calls))
	}
	want := []faults.Call{
		{Op: "GET", Path: "/cas/blob/a", N: 1},
		{Op: "GET", Path: "/cas/blob/a", N: 2},
		{Op: "GET", Path: "/cas/blob/b", N: 1},
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call %d = %+v, want %+v", i, calls[i], want[i])
		}
		if status, size := ft.Response(calls[i]); status != 200 || size != len(faultEchoBody) {
			t.Fatalf("call %d's response = %d, %d bytes; want 200, %d", i, status, size, len(faultEchoBody))
		}
	}
	if len(ft.Injected()) != 0 {
		t.Fatal("pure recorder reported injected faults")
	}
}

// TestFaultTransportScheduleDeterminism: the same seed over the same
// workload injects the same faults on the same exchanges; Prob 1 injects
// on every exchange.
func TestFaultTransportScheduleDeterminism(t *testing.T) {
	srv := newEchoServer(t)
	run := func(seed uint64, prob float64) []faults.Call {
		ft := cas.NewFaultTransport(nil, cas.WithNetSchedule(&cas.NetSchedule{
			Seed: seed, Prob: prob,
			// Keep the draw to kinds whose failures are cheap and
			// deterministic under a shared context deadline.
			Kinds: []cas.NetFault{cas.NetRefused, cas.NetTruncate, cas.NetBitFlip, cas.Net5xx},
		}))
		client := &http.Client{Transport: ft}
		ctx := context.Background()
		paths := []string{"/cas/blob/a", "/cas/blob/a", "/cas/blob/b", "/cas/action/c", "/cas/blob/a"}
		for _, p := range paths {
			fetch(ctx, client, srv.URL+p)
		}
		return ft.Injected()
	}
	first := run(42, 0.5)
	second := run(42, 0.5)
	if len(first) != len(second) {
		t.Fatalf("same seed injected %d then %d faults", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
	if other := run(1337, 0.5); len(other) == len(first) {
		same := true
		for i := range other {
			if other[i].Path != first[i].Path || other[i].N != first[i].N {
				same = false
				break
			}
		}
		if same && len(first) > 0 {
			t.Log("different seeds produced the same schedule (possible but unlikely)")
		}
	}
	if all := run(7, 1.0); len(all) != 5 {
		t.Fatalf("Prob=1 injected %d of 5 exchanges", len(all))
	}
}

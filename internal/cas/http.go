package cas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"time"

	"statefulcc/internal/obs"
)

// HTTPCAS is the client for a serve instance's /cas/ endpoints. It
// implements Store and — like every backend — verifies blob bytes against
// their key on every read, so a server (or a middlebox) handing back wrong
// bytes is a counted miss, never a wrong hit.
//
// The network-adversity contract (docs/ROBUSTNESS.md):
//
//   - Every operation runs under a deadline budget (FetchBudget), so an
//     indefinitely stalled connection costs at most the budget, never a
//     hung build.
//   - Retries follow a strict taxonomy: only transport failures in the
//     middle of an exchange, mid-body read errors, 5xx responses, and
//     blown deadlines re-send. A refused dial (ECONNREFUSED) is a definite
//     answer — nothing listens — and so is every service verdict: 404
//     miss, 410 verify refusal, 507 quota, any other 4xx, and locally
//     detected verify/malformed payloads. Those are final on the first
//     answer and never burn the retry budget or wait out a backoff.
//   - A per-backend circuit breaker fronts every wire attempt: enough
//     transport failures open it, open requests fast-fail with
//     ErrUnavailable (cas.breaker_open) instead of waiting on a dead
//     backend, and half-open probes re-engage a recovered server without
//     operator action.
type HTTPCAS struct {
	base    string // "http://host:port", no trailing slash
	client  *http.Client
	opts    HTTPOptions
	breaker *Breaker

	netErrors, retriesCtr, breakerOpen *obs.Counter
	histNet                            *obs.Histogram
}

// HTTPOptions tunes the client; zero values pick the defaults.
type HTTPOptions struct {
	// Transport is the http.RoundTripper to use (tests wrap it in a
	// FaultTransport); nil means http.DefaultTransport.
	Transport http.RoundTripper
	// Retries is the number of re-sends beyond the first attempt for
	// retryable failures (default 2).
	Retries int
	// Backoff is the first retry delay, doubling per attempt (default
	// 25ms).
	Backoff time.Duration
	// FetchBudget bounds one blob/action operation end to end, retries
	// included (default 10s). A stalled connection costs at most this.
	FetchBudget time.Duration
	// NoBreaker disables the circuit breaker (tests that want raw retry
	// behaviour).
	NoBreaker bool
	// Breaker tunes the circuit breaker (fake clocks, transition hooks).
	Breaker BreakerOptions
}

const defaultFetchBudget = 10 * time.Second

// NewHTTPCAS builds a client for base (e.g. "http://127.0.0.1:7777") with
// default options — breaker on, budgets on. The second argument is ignored;
// pass "".
func NewHTTPCAS(base, _ string) *HTTPCAS {
	return NewHTTPCASOpts(base, "", HTTPOptions{})
}

// NewHTTPCASOpts is NewHTTPCAS with explicit options. The second argument
// is ignored; pass "".
func NewHTTPCASOpts(base, _ string, opts HTTPOptions) *HTTPCAS {
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 25 * time.Millisecond
	}
	if opts.FetchBudget <= 0 {
		opts.FetchBudget = defaultFetchBudget
	}
	h := &HTTPCAS{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Transport: opts.Transport},
		opts:   opts,
	}
	if !opts.NoBreaker {
		h.breaker = NewBreaker(opts.Breaker)
	}
	return h
}

// SetMetrics binds the client's counters and the per-attempt latency
// histogram to a registry (the builder detects this interface and passes
// its own, so client-side network adversity lands in /metrics and the
// flight recorder). Call before concurrent use.
func (h *HTTPCAS) SetMetrics(reg *obs.Registry) {
	if h == nil || reg == nil {
		return
	}
	h.netErrors = reg.Counter(obs.CtrCASNetErrors)
	h.retriesCtr = reg.Counter(obs.CtrCASRetries)
	h.breakerOpen = reg.Counter(obs.CtrCASBreakerOpen)
	h.histNet = reg.Histogram(obs.HistCASNetNS)
	h.breaker.SetMetrics(reg)
}

// BreakerState reports the circuit breaker's state (BreakerClosed when
// the breaker is disabled).
func (h *HTTPCAS) BreakerState() BreakerState { return h.breaker.State() }

// Retryable reports whether err is worth a re-send under the strict
// taxonomy: transport failures in the middle of an exchange, mid-body read
// errors, 5xx responses, and blown deadlines are; a refused dial and every
// service verdict (the package sentinels, any 4xx status) are final. A
// refused dial still counts against the breaker (isNetFailure): it is the
// answer of a backend that is down.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound) ||
		errors.Is(err, ErrVerify) || errors.Is(err, ErrQuota) {
		return false
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return false
	}
	var se *statusErr
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// isNetFailure reports whether err is a transport-level failure — the
// kind that counts against the circuit breaker and cas.net_error. Service
// verdicts (any status below 500) are not failures: the backend answered.
func isNetFailure(err error) bool {
	if err == nil {
		return false
	}
	var se *statusErr
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// statusErr carries a non-2xx wire status so do() can map it exactly once.
type statusErr struct {
	code int
	body string
}

func (e *statusErr) Error() string {
	return fmt.Sprintf("cas: http %d: %s", e.code, strings.TrimSpace(e.body))
}

// do issues one operation under its deadline budget, re-sending only
// retryable failures with doubling backoff. The request body is a byte
// slice so retries can replay it.
func (h *HTTPCAS) do(method, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), h.opts.FetchBudget)
	defer cancel()
	var lastErr error
	for attempt := 0; ; attempt++ {
		data, err := h.roundTrip(ctx, method, path, body)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !Retryable(err) || attempt >= h.opts.Retries || ctx.Err() != nil {
			return nil, lastErr
		}
		h.retriesCtr.Inc()
		select {
		case <-time.After(h.opts.Backoff << attempt):
		case <-ctx.Done():
			return nil, lastErr
		}
	}
}

// roundTrip is one breaker-gated exchange. The breaker sees exactly one
// verdict per admitted exchange.
func (h *HTTPCAS) roundTrip(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	if err := h.breaker.Allow(); err != nil {
		h.breakerOpen.Inc()
		return nil, err
	}
	data, err := h.attempt(ctx, method, path, body)
	h.breaker.Report(isNetFailure(err))
	return data, err
}

// attempt is one raw wire attempt: build, send, fully read, classify. It
// observes cas.net_ns and charges cas.net_error for transport failures.
func (h *HTTPCAS) attempt(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.base+path, rdr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	var data []byte
	if err == nil {
		var rerr error
		data, rerr = io.ReadAll(io.LimitReader(resp.Body, maxBlobWire+1))
		resp.Body.Close()
		if rerr != nil {
			err = fmt.Errorf("cas: %s %s: read body: %w", method, path, rerr)
			data = nil
		} else if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			err = &statusErr{code: resp.StatusCode, body: string(data)}
			data = nil
		}
	}
	h.histNet.Observe(time.Since(start).Nanoseconds())
	if isNetFailure(err) {
		h.netErrors.Inc()
	}
	return data, err
}

// mapStatus folds a wire status error into the package sentinels.
func mapStatus(err error) error {
	if se, ok := err.(*statusErr); ok {
		switch se.code {
		case http.StatusNotFound:
			return ErrNotFound
		case http.StatusGone:
			return fmt.Errorf("%s: %w", se.body, ErrVerify)
		case http.StatusInsufficientStorage:
			return fmt.Errorf("%s: %w", se.body, ErrQuota)
		}
	}
	return err
}

// Get fetches and byte-verifies a blob.
func (h *HTTPCAS) Get(key Key) ([]byte, error) {
	data, err := h.do(http.MethodGet, "/cas/blob/"+key.String(), nil)
	if err != nil {
		return nil, mapStatus(err)
	}
	if Sum(data) != key {
		return nil, fmt.Errorf("cas: http blob %s: bytes hash to %s: %w", key, Sum(data), ErrVerify)
	}
	return data, nil
}

// Put uploads a blob (server re-verifies; ErrQuota past its byte bound).
func (h *HTTPCAS) Put(key Key, data []byte) error {
	if Sum(data) != key {
		return fmt.Errorf("cas: put %s: bytes hash to %s: %w", key, Sum(data), ErrVerify)
	}
	_, err := h.do(http.MethodPut, "/cas/blob/"+key.String(), data)
	return mapStatus(err)
}

// Has probes blob existence with HEAD.
func (h *HTTPCAS) Has(key Key) (bool, error) {
	_, err := h.do(http.MethodHead, "/cas/blob/"+key.String(), nil)
	if err == nil {
		return true, nil
	}
	if err = mapStatus(err); errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return false, err
}

// Delete is not part of the wire protocol (eviction is server policy);
// it reports success so DiskCAS-oriented callers degrade cleanly.
func (h *HTTPCAS) Delete(Key) error { return nil }

// ActionGet resolves an action entry.
func (h *HTTPCAS) ActionGet(action Key) (Key, error) {
	data, err := h.do(http.MethodGet, "/cas/action/"+action.String(), nil)
	if err != nil {
		return Key{}, mapStatus(err)
	}
	blob, perr := ParseKey(strings.TrimSpace(string(data)))
	if perr != nil {
		return Key{}, fmt.Errorf("cas: http action %s: %v: %w", action, perr, ErrVerify)
	}
	return blob, nil
}

// ActionPut publishes action → blob.
func (h *HTTPCAS) ActionPut(action, blob Key) error {
	_, err := h.do(http.MethodPut, "/cas/action/"+action.String(),
		[]byte(blob.String()+"\n"))
	return mapStatus(err)
}

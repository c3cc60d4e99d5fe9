package cas

// FaultTransport: the wire-level sibling of vfs.FaultFS. It wraps any
// http.RoundTripper, records every client↔server exchange in a call log,
// and injects deterministic network faults according to explicit rules
// and/or a seeded probabilistic schedule. An exchange is the faults.Call
// (method, URL path, nth occurrence of that pair), so the partition
// battery can enumerate a clean run's exchanges and then fail each one
// every way (docs/ROBUSTNESS.md, "Network adversity"). The identity, rule
// selection, schedule and logs are internal/faults'; this file holds what
// a fired fault does to an exchange.
//
// Every response body is buffered inside RoundTrip (the /cas/ wire
// protocol's bodies are small and always read to completion), which is
// what lets the body faults — mid-body hangup, silent truncation, bit
// flips — mutate real bytes instead of simulating them.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"

	"statefulcc/internal/faults"
)

// ErrNetInjected is the base error of every injected connection-level
// network fault (refused, stall, hangup).
var ErrNetInjected = errors.New("cas: injected network fault")

// NetFault selects how a firing rule breaks the exchange.
type NetFault int

const (
	// NetRefused fails the exchange before any bytes move, as a refused
	// TCP connection would: the error wraps syscall.ECONNREFUSED, like a
	// real refused dial's, as well as ErrNetInjected.
	NetRefused NetFault = iota
	// NetHangup delivers half the response body, then fails the read —
	// the peer dropped the connection mid-body.
	NetHangup
	// NetLatency delays the exchange by the transport's Latency before
	// letting it proceed normally — a tail-latency spike, not a failure.
	NetLatency
	// NetStall blocks the exchange until the request's context is done —
	// an indefinite hang only a deadline budget can bound.
	NetStall
	// NetTruncate delivers a prefix of the response body with a clean EOF
	// — a middlebox that rewrote the framing; nothing at the transport
	// layer signals the loss, so only content verification catches it.
	NetTruncate
	// NetBitFlip flips one byte of the response body — corruption in
	// flight; again only content verification catches it.
	NetBitFlip
	// Net5xx replaces the response with a synthesized 503 without
	// touching the server.
	Net5xx
)

// NetFaultKinds enumerates every injectable kind, in battery order.
var NetFaultKinds = []NetFault{NetRefused, NetHangup, NetLatency, NetStall, NetTruncate, NetBitFlip, Net5xx}

// String names the kind for logs and subtest labels.
func (k NetFault) String() string {
	switch k {
	case NetRefused:
		return "refused"
	case NetHangup:
		return "hangup"
	case NetLatency:
		return "latency"
	case NetStall:
		return "stall"
	case NetTruncate:
		return "truncate"
	case NetBitFlip:
		return "bitflip"
	case Net5xx:
		return "5xx"
	}
	return fmt.Sprintf("netfault(%d)", int(k))
}

// BodyFault reports whether the kind mutates response bytes (and so can
// only fire on an exchange whose clean response carried a body).
func (k NetFault) BodyFault() bool {
	return k == NetHangup || k == NetTruncate || k == NetBitFlip
}

// NetName renders an exchange as "METHOD path#n", its subtest-friendly
// identity.
func NetName(c faults.Call) string { return fmt.Sprintf("%s %s#%d", c.Op, c.Path, c.N) }

// NetRule selects exchanges to fail, as the faults.Rule with Op Method
// does: an empty Method or Path matches everything; Nth 0 fires on every
// matching exchange, Nth n > 0 from the nth matching exchange on, for
// Count consecutive matches (Count <= 0 means one).
type NetRule struct {
	Method string
	Path   string
	Nth    int
	Count  int
	Kind   NetFault
}

// NetSchedule is a seeded faults.Schedule over the exchanges; the hash
// that decides an exchange also picks its kind, so the kind replays too.
type NetSchedule struct {
	Seed uint64
	// Prob is the per-exchange injection probability in [0, 1].
	Prob float64
	// Kinds bounds the fault kinds drawn (empty means all of
	// NetFaultKinds).
	Kinds []NetFault
}

// FaultTransport wraps an http.RoundTripper with exchange logging and
// deterministic fault injection. With no rules and no schedule it is a
// pure recorder — the partition battery uses that mode to enumerate the
// exchange space. Safe for concurrent use.
type FaultTransport struct {
	*faults.Log
	inner   http.RoundTripper
	latency time.Duration
	rules   []NetRule
	sched   faults.Schedule
	kinds   []NetFault

	mu   sync.Mutex
	resp map[faults.Call]response // the clean response of each exchange
}

// response is the shape of an exchange's clean response.
type response struct{ status, size int }

// NetOption configures a FaultTransport.
type NetOption func(*FaultTransport)

// WithNetRules installs explicit fault rules.
func WithNetRules(rules ...NetRule) NetOption {
	return func(t *FaultTransport) { t.rules = append(t.rules, rules...) }
}

// WithNetSchedule installs a seeded probabilistic schedule.
func WithNetSchedule(s *NetSchedule) NetOption {
	return func(t *FaultTransport) {
		t.sched, t.kinds = faults.Schedule{Seed: s.Seed, Prob: s.Prob}, s.Kinds
	}
}

// WithNetLatency sets the delay a NetLatency fault injects (default
// 50ms).
func WithNetLatency(d time.Duration) NetOption {
	return func(t *FaultTransport) { t.latency = d }
}

// NewFaultTransport wraps inner (nil means http.DefaultTransport).
func NewFaultTransport(inner http.RoundTripper, opts ...NetOption) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	t := &FaultTransport{inner: inner, latency: 50 * time.Millisecond, resp: make(map[faults.Call]response)}
	for _, o := range opts {
		o(t)
	}
	sel := make([]faults.Rule, len(t.rules))
	for i, r := range t.rules {
		sel[i] = faults.Rule{Op: faults.Op(r.Method), Path: r.Path, Nth: r.Nth, Count: r.Count}
	}
	t.Log = faults.NewLog(sel...)
	return t
}

// Response returns the status and body size of the clean response the
// exchange c got (0, 0 when it failed before one). The partition battery
// filters the body kinds on them.
func (t *FaultTransport) Response(c faults.Call) (status, size int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.resp[c]
	return r.status, r.size
}

// begin logs the exchange and decides its fate.
func (t *FaultTransport) begin(method, urlPath string) (faults.Call, NetFault, bool) {
	call, i := t.Next(faults.Op(method), urlPath)
	if i >= 0 {
		return call, t.rules[i].Kind, true
	}
	hit, bits := t.sched.Decide(call)
	if !hit {
		return call, NetRefused, false
	}
	kinds := t.kinds
	if len(kinds) == 0 {
		kinds = NetFaultKinds
	}
	return call, kinds[bits%uint64(len(kinds))], true
}

// note records the clean response shape of call.
func (t *FaultTransport) note(call faults.Call, status, size int) {
	t.mu.Lock()
	t.resp[call] = response{status, size}
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper with fault injection. The
// response body is always fully buffered, so callers never observe a
// partially consumed wire stream.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call, kind, fire := t.begin(req.Method, req.URL.Path)

	if fire {
		switch kind {
		case NetRefused:
			t.Inject(call)
			return nil, fmt.Errorf("%s: %w: %w", NetName(call), syscall.ECONNREFUSED, ErrNetInjected)
		case NetStall:
			t.Inject(call)
			<-req.Context().Done()
			return nil, fmt.Errorf("%s: stalled: %w", NetName(call), req.Context().Err())
		case Net5xx:
			t.Inject(call)
			body := "injected 503 burst"
			t.note(call, http.StatusServiceUnavailable, len(body))
			return &http.Response{
				StatusCode:    http.StatusServiceUnavailable,
				Status:        "503 Service Unavailable (injected)",
				Proto:         "HTTP/1.1",
				ProtoMajor:    1,
				ProtoMinor:    1,
				Header:        make(http.Header),
				Body:          io.NopCloser(strings.NewReader(body)),
				ContentLength: int64(len(body)),
				Request:       req,
			}, nil
		case NetLatency:
			t.Inject(call)
			timer := time.NewTimer(t.latency)
			select {
			case <-timer.C:
			case <-req.Context().Done():
				timer.Stop()
				return nil, fmt.Errorf("%s: latency spike: %w", NetName(call), req.Context().Err())
			}
			// Then proceed with the real exchange below.
		}
	}

	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t.note(call, resp.StatusCode, len(data))

	if fire && kind.BodyFault() && len(data) > 0 {
		t.Inject(call)
		switch kind {
		case NetHangup:
			resp.Body = &hangupBody{data: data[:(len(data)+1)/2], call: NetName(call)}
			resp.ContentLength = -1
			return resp, nil
		case NetTruncate:
			data = data[:len(data)/2]
			resp.ContentLength = -1
		case NetBitFlip:
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/2] ^= 0x20
			data = flipped
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

// hangupBody delivers its prefix, then fails the read as a dropped
// connection would.
type hangupBody struct {
	data []byte
	call string
	off  int
}

func (b *hangupBody) Read(p []byte) (int, error) {
	if b.off < len(b.data) {
		n := copy(p, b.data[b.off:])
		b.off += n
		return n, nil
	}
	return 0, fmt.Errorf("%s: connection hangup mid-body: %w", b.call, ErrNetInjected)
}

func (b *hangupBody) Close() error { return nil }

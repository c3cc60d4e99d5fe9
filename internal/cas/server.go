package cas

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"statefulcc/internal/obs"
)

// Server is the shared-cache service `minibuild serve` mounts under /cas/.
// It is itself a Store: it wraps one backing Store and adds the one policy a
// long-running cache needs, a store-wide byte bound (ServerOptions.Quota)
// kept by least-recently-used eviction. The verified reads, the poisoned
// blob defences and the body limit are the backing store's and the wire
// handler's; the server only keeps the books that the bound needs.
//
// All methods are safe for concurrent use. Time is injectable (Options.Now)
// so the eviction tests run under a fake clock.
//
// Crash-restart safety (docs/ROBUSTNESS.md): when the backing store can be
// scanned (DiskCAS can), NewServer sweeps the temp files a crashed publish
// left and accounts every blob the store holds. The books of a restarted
// server are a from-scratch scan of the blob tree, so they provably match
// one, and it serves the same hits under the same bound as the one that
// died.
type Server struct {
	store Store
	opts  ServerOptions

	mu    sync.Mutex
	blobs map[Key]*blobRef // every blob the server counts as stored
	total int64            // the sum of their sizes

	inflight atomic.Int64 // /cas/ requests currently being served

	ctrHit, ctrMiss, ctrVerify *obs.Counter
	ctrPublished, ctrIOErr     *obs.Counter
	ctrEvicted, ctrBodyReject  *obs.Counter
	ctrScanned, ctrSwept       *obs.Counter
	histServe                  *obs.Histogram
}

type blobRef struct {
	size int64
	last time.Time
}

// scanner is what the startup scan needs of a backing store (DiskCAS has
// it): sweep the temp files a crashed write left, then list and size the
// stored blobs.
type scanner interface {
	SweepTemp() int
	BlobKeys() []Key
	BlobSize(key Key) (int64, error)
}

// ServerOptions configures the policy layer.
type ServerOptions struct {
	// Quota bounds the bytes of all stored blobs; <= 0 means unbounded.
	Quota int64
	// Now is the clock (tests inject a fake one); default time.Now.
	Now func() time.Time
	// Metrics receives the cas.* server counters and the cas.serve_ns
	// histogram; nil disables them.
	Metrics *obs.Registry
	// MaxBodyBytes bounds one request body on the wire (default
	// maxBlobWire). Over-limit uploads are refused with 413 and counted
	// (cas.body_rejected) before they can balloon the server.
	MaxBodyBytes int64
}

// NewServer wraps a backing store in the policy layer. When the store can
// be scanned (DiskCAS), the startup scan runs here.
func NewServer(store Store, opts ServerOptions) *Server {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = maxBlobWire
	}
	s := &Server{store: store, opts: opts, blobs: make(map[Key]*blobRef)}
	if r := opts.Metrics; r != nil {
		s.ctrHit = r.Counter(obs.CtrCASHits)
		s.ctrMiss = r.Counter(obs.CtrCASMisses)
		s.ctrVerify = r.Counter(obs.CtrCASVerifyFailed)
		s.ctrPublished = r.Counter(obs.CtrCASPublished)
		s.ctrIOErr = r.Counter(obs.CtrCASIOErrors)
		s.ctrEvicted = r.Counter(obs.CtrCASEvicted)
		s.ctrBodyReject = r.Counter(obs.CtrCASBodyRejected)
		s.ctrScanned = r.Counter(obs.CtrCASRecoveredRefs)
		s.ctrSwept = r.Counter(obs.CtrCASRecoveredOrphans)
		s.histServe = r.Histogram(obs.HistCASServeNS)
	}
	s.scan()
	return s
}

// scan rebuilds the books from a scannable backing store: sweep the
// temp files orphaned by a crash mid-publish (cas.recovered_orphans), then
// account every stored blob at its size on disk (cas.recovered_refs) and
// evict down to the quota. A file under objects/ whose name is not a key
// is not a blob and is left alone; a blob whose bytes are poisoned is
// accounted until its first read, which deletes it and drops it from the
// books.
func (s *Server) scan() {
	sc, ok := s.store.(scanner)
	if !ok {
		return
	}
	s.ctrSwept.Add(int64(sc.SweepTemp()))
	now := s.opts.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range sc.BlobKeys() {
		if size, err := sc.BlobSize(key); err == nil {
			s.blobs[key] = &blobRef{size: size, last: now}
			s.total += size
			s.ctrScanned.Inc()
		}
	}
	s.evictLocked(Key{})
}

// Metrics returns the registry the server counts into (may be nil).
func (s *Server) Metrics() *obs.Registry { return s.opts.Metrics }

// Get reads a blob, touching its LRU slot.
func (s *Server) Get(key Key) ([]byte, error) {
	data, err := s.store.Get(key)
	if err != nil {
		if errors.Is(err, ErrVerify) {
			// The backing store dropped a poisoned blob; so do the books.
			s.ctrVerify.Inc()
			s.mu.Lock()
			s.forgetLocked(key)
			s.mu.Unlock()
		}
		return nil, err
	}
	s.mu.Lock()
	if b, ok := s.blobs[key]; ok {
		b.last = s.opts.Now()
	}
	s.mu.Unlock()
	return data, nil
}

// Put stores a blob, evicting least-recently-used blobs as needed to fit
// the quota. A blob bigger than the whole quota is refused (ErrQuota).
// A blob joins the books only once it is written, and the blob being put
// is never the victim, so whenever no Put is in flight the store holds no
// more than the quota and every stored blob is accounted.
func (s *Server) Put(key Key, data []byte) error {
	if Sum(data) != key {
		s.ctrVerify.Inc()
		return fmt.Errorf("cas: put %s: bytes hash to %s: %w", key, Sum(data), ErrVerify)
	}
	size := int64(len(data))
	if s.opts.Quota > 0 && size > s.opts.Quota {
		return fmt.Errorf("cas: blob %s is %d bytes, quota %d: %w", key, size, s.opts.Quota, ErrQuota)
	}
	if err := s.store.Put(key, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.opts.Now()
	if b, ok := s.blobs[key]; ok {
		b.last = now
		return nil
	}
	s.blobs[key] = &blobRef{size: size, last: now}
	s.total += size
	s.evictLocked(key)
	return nil
}

// evictLocked deletes least-recently-used blobs other than keep until the
// books fit the quota (oldest access first; key order breaks ties, so the
// choice is deterministic under a fake clock).
func (s *Server) evictLocked(keep Key) {
	for s.opts.Quota > 0 && s.total > s.opts.Quota {
		var victim Key
		var v *blobRef
		for k, b := range s.blobs {
			if k == keep {
				continue
			}
			if v == nil || b.last.Before(v.last) ||
				(b.last.Equal(v.last) && bytes.Compare(k[:], victim[:]) < 0) {
				victim, v = k, b
			}
		}
		if v == nil {
			return
		}
		s.forgetLocked(victim)
		s.ctrEvicted.Inc()
		if err := s.store.Delete(victim); err != nil {
			s.ctrIOErr.Inc()
		}
	}
}

func (s *Server) forgetLocked(key Key) {
	if b, ok := s.blobs[key]; ok {
		s.total -= b.size
		delete(s.blobs, key)
	}
}

// Accounting snapshots the books: every blob the server counts as stored,
// with its size (the restart and eviction tests compare it with the store).
func (s *Server) Accounting() map[Key]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[Key]int64, len(s.blobs))
	for k, b := range s.blobs {
		out[k] = b.size
	}
	return out
}

// Has reports blob existence.
func (s *Server) Has(key Key) (bool, error) { return s.store.Has(key) }

// Delete removes a blob from the store and the books.
func (s *Server) Delete(key Key) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forgetLocked(key)
	return s.store.Delete(key)
}

// ActionGet resolves an action entry, counting hit/miss.
func (s *Server) ActionGet(action Key) (Key, error) {
	blob, err := s.store.ActionGet(action)
	switch {
	case err == nil:
		s.ctrHit.Inc()
	case errors.Is(err, ErrNotFound):
		s.ctrMiss.Inc()
	case errors.Is(err, ErrVerify):
		s.ctrVerify.Inc()
	default:
		s.ctrIOErr.Inc()
	}
	return blob, err
}

// ActionPut records action → blob.
func (s *Server) ActionPut(action, blob Key) error {
	if err := s.store.ActionPut(action, blob); err != nil {
		s.ctrIOErr.Inc()
		return err
	}
	s.ctrPublished.Inc()
	return nil
}

// InFlight reports the number of /cas/ requests currently being served
// (the drain loop and /healthz export it).
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// ---- HTTP wire protocol ----
//
//	GET    /cas/blob/<key>     200 bytes | 404 | 410 (verify failed) | 500
//	HEAD   /cas/blob/<key>     200 | 404
//	PUT    /cas/blob/<key>     204 | 400 (verify) | 413 (body limit) | 507 (quota) | 500
//	GET    /cas/action/<key>   200 "<blobkey>\n" | 404 | 410 | 500
//	PUT    /cas/action/<key>   body "<blobkey>" → 204
//
// Any other path is 404, and a malformed key 400. Status codes are chosen
// so a client can branch without parsing bodies: 404 is a miss, 410 a
// verify failure (also a miss, but counted), 507 a quota refusal.

// maxBlobWire bounds a single uploaded blob (64 MiB — far above any unit
// object, small enough that a hostile PUT cannot balloon the server).
const maxBlobWire = 64 << 20

// Handler returns the /cas/ HTTP handler. Mount it at "/cas/".
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		defer func() { s.histServe.Observe(time.Since(start).Nanoseconds()) }()
		rest, ok := strings.CutPrefix(r.URL.Path, "/cas/")
		kind, keyHex, cut := strings.Cut(rest, "/")
		if !ok || !cut || (kind != "blob" && kind != "action") {
			http.NotFound(w, r)
			return
		}
		key, err := ParseKey(keyHex)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if kind == "blob" {
			s.serveBlob(w, r, key)
		} else {
			s.serveAction(w, r, key)
		}
	})
}

func (s *Server) serveBlob(w http.ResponseWriter, r *http.Request, key Key) {
	switch r.Method {
	case http.MethodGet:
		data, err := s.Get(key)
		if err != nil {
			writeCASErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	case http.MethodHead:
		ok, err := s.Has(key)
		if err != nil {
			writeCASErr(w, err)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodPut:
		// MaxBytesReader both bounds the read and closes the connection on
		// an over-limit body, so a hostile uploader cannot stream past the
		// limit and a stalled one is bounded by the server's read timeouts.
		limit := min(s.opts.MaxBodyBytes, maxBlobWire)
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				s.ctrBodyReject.Inc()
				http.Error(w, "cas: blob exceeds body limit", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.Put(key, data); err != nil {
			writeCASErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) serveAction(w http.ResponseWriter, r *http.Request, action Key) {
	switch r.Method {
	case http.MethodGet:
		blob, err := s.ActionGet(action)
		if err != nil {
			writeCASErr(w, err)
			return
		}
		fmt.Fprintf(w, "%s\n", blob)
	case http.MethodPut:
		body, err := io.ReadAll(io.LimitReader(r.Body, KeyHexLen+2))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		blob, err := ParseKey(strings.TrimSpace(string(body)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.ActionPut(action, blob); err != nil {
			writeCASErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// writeCASErr maps the sentinel errors onto the wire status codes.
func writeCASErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrVerify):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, ErrQuota):
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

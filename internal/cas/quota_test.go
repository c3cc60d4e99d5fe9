package cas_test

// The store-wide byte bound: deterministic LRU eviction under an injected
// fake clock, and books that always equal what the backing store holds.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/obs"
)

// The server is the Store a serve instance's own builder publishes through.
var _ cas.Store = (*cas.Server)(nil)

// fakeClock is a manually advanced time source for ServerOptions.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// sizedBlob makes a blob of exactly n bytes whose content starts with tag.
func sizedBlob(tag string, n int) (cas.Key, []byte) {
	data := []byte(tag + strings.Repeat("-", n-len(tag)))
	return cas.Sum(data), data
}

// bookedBytes sums the server's books.
func bookedBytes(srv *cas.Server) int64 {
	n := int64(0)
	for _, size := range srv.Accounting() {
		n += size
	}
	return n
}

func TestTenantQuotaDeterministicLRU(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Quota: 100, Now: clk.Now, Metrics: reg})

	ka, da := sizedBlob("a", 40)
	kb, db := sizedBlob("b", 40)
	kc, dc := sizedBlob("c", 40)
	if err := srv.Put(ka, da); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := srv.Put(kb, db); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	// Third put exceeds the 100-byte quota: the oldest blob (a) must be the
	// victim.
	if err := srv.Put(kc, dc); err != nil {
		t.Fatal(err)
	}
	if got := bookedBytes(srv); got != 80 {
		t.Fatalf("booked bytes = %d after eviction, want 80", got)
	}
	if ok, _ := mem.Has(ka); ok {
		t.Fatal("evicted the wrong blob: a (oldest) survived")
	}
	for _, k := range []cas.Key{kb, kc} {
		if ok, _ := mem.Has(k); !ok {
			t.Fatalf("blob %s evicted out of LRU order", k)
		}
	}
	if got := reg.Snapshot()[obs.CtrCASEvicted]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrCASEvicted, got)
	}

	// A Get refreshes the LRU slot: touch b, then overflow again — c (now
	// oldest) must be the next victim.
	clk.Advance(time.Second)
	if _, err := srv.Get(kb); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	kd, dd := sizedBlob("d", 40)
	if err := srv.Put(kd, dd); err != nil {
		t.Fatal(err)
	}
	if ok, _ := mem.Has(kc); ok {
		t.Fatal("Get did not refresh the LRU slot: c survived over the touched b")
	}
	if ok, _ := mem.Has(kb); !ok {
		t.Fatal("the touched blob b was evicted")
	}
}

func TestTenantQuotaLRUTieBreaksOnKey(t *testing.T) {
	clk := newFakeClock()
	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Quota: 100, Now: clk.Now})

	// Two blobs stored at the same fake instant: the victim must be the one
	// with the smaller key string — fully deterministic, no map-order luck.
	k1, d1 := sizedBlob("tie1", 40)
	k2, d2 := sizedBlob("tie2", 40)
	lo, hi := k1, k2
	dlo, dhi := d1, d2
	if k2.String() < k1.String() {
		lo, hi = k2, k1
		dlo, dhi = d2, d1
	}
	if err := srv.Put(lo, dlo); err != nil {
		t.Fatal(err)
	}
	if err := srv.Put(hi, dhi); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	k3, d3 := sizedBlob("third", 40)
	if err := srv.Put(k3, d3); err != nil {
		t.Fatal(err)
	}
	if ok, _ := mem.Has(lo); ok {
		t.Fatal("tie not broken on key order: the smaller key survived")
	}
	if ok, _ := mem.Has(hi); !ok {
		t.Fatal("tie break evicted both tied blobs")
	}
}

// TestPutNeverEvictsItsOwnBlob: two blobs put at one instant tie on age,
// and the key-order tie break favours the blob being put. It must not be
// the victim: were it evicted before it was written, the store would then
// hold it unaccounted and past the quota.
func TestPutNeverEvictsItsOwnBlob(t *testing.T) {
	clk := newFakeClock()
	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Quota: 100, Now: clk.Now})
	k1, d1 := sizedBlob("own1", 60)
	k2, d2 := sizedBlob("own2", 60)
	if k1.String() < k2.String() {
		k1, k2, d1, d2 = k2, k1, d2, d1
	}
	// The larger key first, so the tie break points at the second put.
	if err := srv.Put(k1, d1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Put(k2, d2); err != nil {
		t.Fatal(err)
	}
	if got := mem.Bytes(); got > 100 {
		t.Fatalf("store holds %d bytes past the 100-byte quota", got)
	}
	books := srv.Accounting()
	for _, k := range mem.Keys() {
		if _, ok := books[k]; !ok {
			t.Fatalf("stored blob %s is not accounted (books %v)", k, books)
		}
	}
	if got, want := bookedBytes(srv), mem.Bytes(); got != want {
		t.Fatalf("books hold %d bytes, the store %d", got, want)
	}
	if ok, _ := mem.Has(k2); !ok {
		t.Fatal("the blob just put was evicted")
	}
}

// TestQuotaHoldsUnderConcurrentPuts: builders putting and reading an
// overlapping set of blobs at once, under a bound a few blobs wide. When
// they are done, the store holds no more than the quota and every stored
// blob is in the books (run it under -race).
func TestQuotaHoldsUnderConcurrentPuts(t *testing.T) {
	mem := cas.NewMemCAS(0)
	srv := cas.NewServer(mem, cas.ServerOptions{Quota: 200})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k, d := sizedBlob(fmt.Sprintf("%d-%d", (w+i)%13, i%5), 30) // shared across writers
				if err := srv.Put(k, d); err != nil {
					t.Error(err)
					return
				}
				_, _ = srv.Get(k) // may already be evicted by another writer
			}
		}(w)
	}
	wg.Wait()
	if got := mem.Bytes(); got > 200 {
		t.Fatalf("store holds %d bytes past the 200-byte quota", got)
	}
	books := srv.Accounting()
	for _, k := range mem.Keys() {
		if _, ok := books[k]; !ok {
			t.Fatalf("stored blob %s is not accounted", k)
		}
	}
}

func TestQuotaRefusesOversizedBlob(t *testing.T) {
	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Quota: 100})
	k, d := sizedBlob("way too big", 101)
	if err := srv.Put(k, d); !errors.Is(err, cas.ErrQuota) {
		t.Fatalf("oversized Put = %v, want ErrQuota", err)
	}
	if got := bookedBytes(srv); got != 0 {
		t.Fatalf("refused put still charged %d bytes", got)
	}
	if ok, _ := srv.Has(k); ok {
		t.Fatal("refused blob landed in the store anyway")
	}
}

func TestServerRejectsPoisonedPut(t *testing.T) {
	reg := obs.NewRegistry()
	srv := cas.NewServer(cas.NewMemCAS(0), cas.ServerOptions{Metrics: reg})
	data := []byte("honest")
	if err := srv.Put(cas.Sum([]byte("other")), data); !errors.Is(err, cas.ErrVerify) {
		t.Fatalf("mismatched Put = %v, want ErrVerify", err)
	}
	if got := reg.Snapshot()[obs.CtrCASVerifyFailed]; got != 1 {
		t.Fatalf("%s = %d, want 1", obs.CtrCASVerifyFailed, got)
	}
	if got := bookedBytes(srv); got != 0 {
		t.Fatalf("rejected put charged %d bytes", got)
	}
}

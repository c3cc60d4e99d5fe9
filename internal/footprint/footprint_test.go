package footprint

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTraceCanonicalAndDedupes(t *testing.T) {
	// Two insertion orders, duplicate keys mixed in: identical records out,
	// with the first write winning each key.
	a := NewTrace("u.mc")
	a.Add(KindGlobal, "g", 7)
	a.Add(KindCall, "f", 2)
	a.Add(KindCall, "f", 99) // dup: ignored
	a.AddSource("u.mc", []byte("src"))
	a.AddPipeline([]string{"p1", "p2"})

	b := NewTrace("u.mc")
	b.AddPipeline([]string{"p1", "p2"})
	b.AddSource("u.mc", []byte("src"))
	b.Add(KindCall, "f", 2)
	b.Add(KindGlobal, "g", 7)

	ra, rb := a.Finish(42), b.Finish(42)
	if !ra.Equal(rb) {
		t.Fatalf("insertion order changed the canonical record:\n%v\nvs\n%v", ra.Entries, rb.Entries)
	}
	if h, ok := ra.Get(KindCall, "f"); !ok || h != 2 {
		t.Fatalf("Get(call f) = %d, %v; want first-write value 2", h, ok)
	}
	for i := 1; i < len(ra.Entries); i++ {
		p, c := ra.Entries[i-1], ra.Entries[i]
		if c.Kind < p.Kind || (c.Kind == p.Kind && c.Name <= p.Name) {
			t.Fatalf("entries not strictly ascending: %v before %v", p, c)
		}
	}
}

func TestChangedVerdicts(t *testing.T) {
	src := []byte("func f() int { return 1; }")
	pipe := []string{"mem2reg", "dce"}
	tr := NewTrace("u.mc")
	tr.AddSource("u.mc", src)
	tr.AddPipeline(pipe)
	tr.Add(KindCall, "ext", 3) // link-scope: never in Changed
	rec := tr.Finish(1)

	if got := rec.Changed(src, HashStrings(pipe)); len(got) != 0 {
		t.Fatalf("identical inputs reported changed: %v", got)
	}
	if got := rec.Changed([]byte("edited"), HashStrings(pipe)); len(got) != 1 || got[0].Kind != KindSource {
		t.Fatalf("source edit verdict = %v, want one source entry", got)
	}
	if got := rec.Changed(src, HashStrings([]string{"mem2reg"})); len(got) != 1 || got[0].Kind != KindPipeline {
		t.Fatalf("pipeline change verdict = %v, want one pipeline entry", got)
	}
}

func TestDiff(t *testing.T) {
	old := &Record{Entries: []Entry{
		{KindSource, "u.mc", 1}, {KindCall, "dropped", 2}, {KindCall, "kept", 3},
	}}
	new := &Record{Entries: []Entry{
		{KindSource, "u.mc", 9}, {KindCall, "kept", 3}, {KindGlobal, "added", 4},
	}}
	old.Canon()
	new.Canon()
	got := Diff(old, new)
	want := map[string]bool{}
	for _, d := range got {
		want[d] = true
	}
	for _, expect := range []string{"~ source u.mc@", "- call dropped@", "+ global added@"} {
		found := false
		for _, d := range got {
			if strings.HasPrefix(d, expect) {
				found = true
			}
		}
		if !found {
			t.Fatalf("Diff missing %q; got %v", expect, got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("Diff = %v, want exactly 3 deltas", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := NewTrace("u.mc")
	tr.AddSource("u.mc", []byte("body"))
	tr.AddPipeline([]string{"a", "b"})
	tr.Add(KindFile, "cache/u.state", 0xAB)
	tr.Add(KindStat, "", 0) // empty name, zero hash: still encodable
	tr.Add(KindCall, "callee", 2)
	rec := tr.Finish(0xDEAD)

	enc := rec.AppendBinary(nil)
	if len(enc) != rec.EncodedSize() {
		t.Fatalf("EncodedSize %d != actual %d", rec.EncodedSize(), len(enc))
	}
	dec, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, dec) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", rec, dec)
	}
	if re := dec.AppendBinary(nil); string(re) != string(enc) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestCodecRejects(t *testing.T) {
	good := (&Record{DeclaredHash: 5, Entries: []Entry{
		{KindSource, "u", 1}, {KindCall, "f", 2},
	}}).AppendBinary(nil)
	if _, err := DecodeBinary(good); err != nil {
		t.Fatalf("canonical buffer rejected: %v", err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = f(b)
		if _, err := DecodeBinary(b); err == nil {
			t.Errorf("%s: corrupt buffer accepted", name)
		}
	}
	mutate("bad version", func(b []byte) []byte { b[0] = 9; return b })
	mutate("trailing byte", func(b []byte) []byte { return append(b, 0) })
	mutate("invalid kind", func(b []byte) []byte { b[10] = 0; return b })
	mutate("kind past max", func(b []byte) []byte { b[10] = byte(maxKind) + 1; return b })
	mutate("hostile count", func(b []byte) []byte { b[9] = 0xFF; return b })

	// Every strict prefix must be rejected: the codec consumes the whole
	// buffer or nothing.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeBinary(good[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", i, len(good))
		}
	}

	// Disorder and duplicates: swap the two entries / repeat one.
	swapped := (&Record{DeclaredHash: 5, Entries: []Entry{
		{KindCall, "f", 2}, {KindSource, "u", 1},
	}}).AppendBinary(nil)
	if _, err := DecodeBinary(swapped); err == nil {
		t.Error("out-of-order entries accepted")
	}
	dup := (&Record{DeclaredHash: 5, Entries: []Entry{
		{KindSource, "u", 1}, {KindSource, "u", 1},
	}}).AppendBinary(nil)
	if _, err := DecodeBinary(dup); err == nil {
		t.Error("duplicate entries accepted")
	}
}

func TestTraceConcurrentAdd(t *testing.T) {
	// Concurrent Adds with racing duplicates: no data race (run under
	// -race), deterministic size, one entry per key.
	tr := NewTrace("u.mc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Add(KindCall, "shared", uint64(g)) // same key from all goroutines
				tr.Add(KindGlobal, names[i%len(names)], uint64(i))
			}
		}(g)
	}
	wg.Wait()
	rec := tr.Finish(1)
	if want := 1 + len(names); len(rec.Entries) != want {
		t.Fatalf("got %d entries, want %d (dedupe under concurrency)", len(rec.Entries), want)
	}
}

var names = []string{"g0", "g1", "g2", "g3", "g4"}

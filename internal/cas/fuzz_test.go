package cas_test

// Codec and wire-protocol fuzzers plus the frozen layout golden.
//
// The fuzz properties: no decoder panics, allocation stays bounded by the
// input length (the codecs validate every count against bytes remaining
// before allocating), and decode-accepted ⇒ re-encode byte-identical — the
// property that makes the cache's verify rule airtight, since any two byte
// strings decoding to the same value would hash to different keys.
//
// testdata/casblob_v1.golden freezes the v1 object-blob bytes. If this
// test fails after a codec change, bump cas.BlobFormatVersion (old and new
// processes then stop sharing instead of misdecoding each other) and
// regenerate with -update. (PR 23 regenerated it without a bump: the layout
// did not move — every object the compiler makes encodes to the bytes it
// did — but the golden object had an else-target on a constant and
// arguments on a move, which an instruction can no longer hold and the
// decoder now refuses.)

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
)

var update = flag.Bool("update", false, "rewrite golden files")

func FuzzCASKey(f *testing.F) {
	f.Add("0123456789abcdef0123456789abcdef")
	f.Add("00000000000000000000000000000000")
	f.Add("not a key")
	f.Add(strings.Repeat("f", 32))
	f.Fuzz(func(t *testing.T, s string) {
		k, err := cas.ParseKey(s)
		if err == nil && k.String() != s {
			t.Fatalf("accepted %q but round-trips to %q", s, k.String())
		}
		// Sum output always re-parses to itself, whatever the input.
		h := cas.Sum([]byte(s))
		rt, err := cas.ParseKey(h.String())
		if err != nil || rt != h {
			t.Fatalf("Sum key %s does not round-trip: %v", h, err)
		}
	})
}

func FuzzCASBlobDecode(f *testing.F) {
	action := cas.Sum([]byte("seed action"))
	f.Add(cas.EncodeBlob(cas.KindObject, action, "unit.mc", []byte("payload")))
	f.Add(cas.EncodeBlob(cas.KindState, action, "", nil))
	f.Add([]byte("CASB"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := cas.DecodeBlob(data)
		if err != nil {
			return
		}
		re := cas.EncodeBlob(b.Kind, b.Action, b.Unit, b.Payload)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted blob does not re-encode identically:\n in: %x\nout: %x", data, re)
		}
	})
}

func FuzzCASObjectDecode(f *testing.F) {
	f.Add(cas.EncodeObject(goldenObject()))
	f.Add(cas.EncodeObject(&codegen.Object{Unit: "empty.mc"}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, h := range hostilePayloads(f) {
		f.Add(h.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := cas.DecodeObject(data)
		if err != nil {
			return
		}
		re := cas.EncodeObject(o)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted object does not re-encode identically:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzCASWire drives the serve handler with arbitrary requests: any input
// may be rejected, none may panic or return a nonsense status, and a path
// outside the blob and action routes (the lease/ seeds are two) is 404.
func FuzzCASWire(f *testing.F) {
	k := cas.Sum([]byte("wire seed")).String()
	f.Add(uint8(0), "blob/"+k, []byte("body"))
	f.Add(uint8(1), "blob/"+k, []byte("body"))
	f.Add(uint8(2), "lease/"+k, []byte(""))
	f.Add(uint8(3), "lease/"+k, []byte(""))
	f.Add(uint8(4), "action/"+k, []byte(k))
	f.Add(uint8(0), "action/not-a-key", []byte(""))
	f.Add(uint8(0), "../../etc/passwd", []byte(""))
	f.Fuzz(func(t *testing.T, m uint8, path string, body []byte) {
		methods := []string{"GET", "PUT", "POST", "DELETE", "HEAD", "PATCH"}
		u, err := url.ParseRequestURI("/cas/" + path)
		if err != nil {
			return // not a request the router could ever see
		}
		srv := cas.NewServer(cas.NewMemCAS(1<<20), cas.ServerOptions{Quota: 4096})
		// Built directly rather than via httptest.NewRequest: the fuzzer may
		// produce paths that parse but cannot survive a request-line re-parse
		// (control bytes), and those still reach a handler in production.
		req := &http.Request{
			Method: methods[int(m)%len(methods)],
			URL:    u,
			Header: make(http.Header),
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("handler returned status %d", rec.Code)
		}
		kind, _, _ := strings.Cut(strings.TrimPrefix(u.Path, "/cas/"), "/")
		if kind != "blob" && kind != "action" && rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404 outside the blob and action routes", req.Method, u.Path, rec.Code)
		}
	})
}

// goldenObject exercises every Object field: globals, multiple functions,
// every opcode that reads its function's argument pool, the string table or
// a jump target, extreme operands, relocs in both tables, externs.
func goldenObject() *codegen.Object {
	return &codegen.Object{
		Unit: "golden.mc",
		Globals: []codegen.GlobalDef{
			{Name: "g0", Words: 2, Init: -7},
			{Name: "g1", Words: 1, Init: 1 << 40},
		},
		Funcs: []*codegen.FuncCode{
			{
				Name: "main", NumParams: 0, NumSlots: 3, AllocaWords: 2, HasResult: true,
				Code: []codegen.Instr{
					{Op: codegen.IConst, A: 0, Imm: 42},
					{Op: codegen.ICall, A: 1, B: 0, C: 2, Imm: -9},
					{Op: codegen.IBr, A: 1, B: 4, Imm: 3},
					{Op: codegen.IPrint, B: 2, C: 1, Imm: 0},
					{Op: codegen.IAssert, A: 2, Imm: 1},
					{Op: codegen.IPrint, B: 3, C: 0, Imm: -1},
					{Op: codegen.IRet, A: 1},
				},
				Args: []int32{0, -2, 7},
			},
			{
				Name: "helper", NumParams: 2, NumSlots: 2, HasResult: false,
				Code: []codegen.Instr{
					{Op: codegen.IGAddr, A: 0},
					{Op: codegen.IBin, Sub: 3, A: 2147483647, B: -2147483648, C: 2, Imm: 1 << 40},
					{Op: codegen.IJmp, Imm: 0},
				},
			},
		},
		Strings:      []string{"hello", ""},
		Relocs:       []codegen.Reloc{{Func: 0, Pc: 1, Symbol: "helper"}},
		GlobalRelocs: []codegen.Reloc{{Func: 1, Pc: 0, Symbol: "g0"}},
		Externs:      []string{"puts"},
	}
}

// hostilePayloads are goldenObject's payload with one thing wrong each: what
// a blob from an untrusted cache could say that the linker or the VM would
// index with, or that has no place in an instruction. None may decode.
func hostilePayloads(tb testing.TB) []hostilePayload {
	// object edits the object before it is encoded (the encoder checks
	// nothing), wire the bytes after: the wire form has fields the memory
	// form has none for.
	object := func(name string, edit func(o *codegen.Object)) hostilePayload {
		o := goldenObject()
		edit(o)
		return hostilePayload{name, cas.EncodeObject(o)}
	}
	golden := cas.EncodeObject(goldenObject())
	wire := func(name string, from, to []byte) hostilePayload {
		if bytes.Count(golden, from) != 1 {
			tb.Fatalf("%s: the golden payload has the instruction bytes %x %d times, want once", name, from, bytes.Count(golden, from))
		}
		return hostilePayload{name, bytes.Replace(golden, from, to, 1)}
	}
	main := func(o *codegen.Object, pc int) *codegen.Instr { return &o.Funcs[0].Code[pc] }
	// main's first two instructions as encoded: op, sub, A, B, C, Imm,
	// else-target, string, argument count and arguments.
	konst := []byte{byte(codegen.IConst), 0, 0, 0, 0, 84, 0, 1, 0}
	call := []byte{byte(codegen.ICall), 0, 2, 0, 0, 17, 0, 1, 2, 0, 3}
	return []hostilePayload{
		object("branch then-target past the function", func(o *codegen.Object) { main(o, 2).Imm = 7 }),
		object("branch else-target negative", func(o *codegen.Object) { main(o, 2).B = -1 }),
		object("jump target past the function", func(o *codegen.Object) { o.Funcs[1].Code[2].Imm = 1 << 33 }),
		object("print string outside the table", func(o *codegen.Object) { main(o, 3).Imm = 2 }),
		object("assert string below -1", func(o *codegen.Object) { main(o, 4).Imm = -2 }),
		object("call without a relocation", func(o *codegen.Object) { o.Relocs = nil }),
		object("duplicate relocation site", func(o *codegen.Object) { o.Relocs = append(o.Relocs, o.Relocs[0]) }),
		object("relocations out of site order", func(o *codegen.Object) {
			o.Funcs[0].Code[0] = codegen.Instr{Op: codegen.ICall, A: -1, B: 0, C: 0}
			o.Relocs = []codegen.Reloc{{Func: 0, Pc: 1, Symbol: "helper"}, {Func: 0, Pc: 0, Symbol: "helper"}}
		}),
		object("relocation on an instruction that is no call", func(o *codegen.Object) {
			o.Relocs = append(o.Relocs, codegen.Reloc{Func: 1, Pc: 1, Symbol: "helper"})
		}),
		object("global relocation outside the object", func(o *codegen.Object) { o.GlobalRelocs[0].Func = 5 }),
		wire("else-target on a constant", konst, []byte{byte(codegen.IConst), 0, 0, 0, 0, 84, 2, 1, 0}),
		wire("string on a constant", konst, []byte{byte(codegen.IConst), 0, 0, 0, 0, 84, 0, 0, 0}),
		wire("argument on a constant", konst, []byte{byte(codegen.IConst), 0, 0, 0, 0, 84, 0, 1, 1, 0}),
		wire("source slot on a call", call, []byte{byte(codegen.ICall), 0, 2, 2, 0, 17, 0, 1, 2, 0, 3}),
		wire("string on a call", call, []byte{byte(codegen.ICall), 0, 2, 0, 0, 17, 0, 0, 2, 0, 3}),
	}
}

type hostilePayload struct {
	name    string
	payload []byte
}

// TestDecodeObjectRejectsHostile: each hostile payload is refused as a
// verification failure, and the payload it was made from is accepted.
func TestDecodeObjectRejectsHostile(t *testing.T) {
	if _, err := cas.DecodeObject(cas.EncodeObject(goldenObject())); err != nil {
		t.Fatalf("the well-formed object does not decode: %v", err)
	}
	for _, h := range hostilePayloads(t) {
		if _, err := cas.DecodeObject(h.payload); !errors.Is(err, cas.ErrVerify) {
			t.Errorf("%s: decode returned %v, want a verification failure", h.name, err)
		}
	}
}

// TestGoldenBlobV1 pins the exact v1 bytes of a full object blob — header
// and payload — including the action-key derivation, with every input
// spelled as a literal so the golden moves only when the codec itself does.
func TestGoldenBlobV1(t *testing.T) {
	action := cas.ActionKey("statefulcc/object", 6, 1, "stateful",
		[]string{"fold", "dce"}, "golden.mc", []byte("func main() int { return 42; }"))
	blob := cas.EncodeBlob(cas.KindObject, action, "golden.mc", cas.EncodeObject(goldenObject()))

	path := filepath.Join("testdata", "casblob_v1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("blob layout drifted from the frozen v1 golden (%d vs %d bytes); "+
			"bump cas.BlobFormatVersion instead of regenerating in place", len(blob), len(want))
	}

	// The golden decodes back to exactly the source object.
	dec, err := cas.DecodeBlob(want)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Kind != cas.KindObject || dec.Action != action || dec.Unit != "golden.mc" {
		t.Fatalf("golden header decoded to %+v", dec)
	}
	obj, err := cas.DecodeObject(dec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	// (Validated like every decoded object: that is what records Digests.)
	src := goldenObject()
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obj, src) {
		t.Fatal("golden payload does not decode back to the source object")
	}

	// Every strict prefix of the payload is rejected — truncation can never
	// yield a valid (wrong) object.
	for n := 0; n < len(dec.Payload); n++ {
		if _, err := cas.DecodeObject(dec.Payload[:n]); err == nil {
			t.Fatalf("payload prefix of %d/%d bytes decoded without error", n, len(dec.Payload))
		}
	}
}

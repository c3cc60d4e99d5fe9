package cas

// The on-wire/on-disk blob layout. Every blob the build stack publishes is
// a small fixed header followed by a payload:
//
//	offset  size  field
//	0       4     magic "CASB"
//	4       1     format version (BlobFormatVersion)
//	5       1     kind (KindObject | KindState)
//	6       16    action key the payload was produced for
//	22      uvar  unit-name length (minimal encoding enforced) + bytes
//	…       …     payload (to end of blob)
//
// The header is what makes a poisoned *action entry* detectable: the entry
// maps action → blob key, the blob's bytes verify against the blob key
// (content addressing), and the header's action key must equal the action
// the client asked about — so redirecting an action at a different (valid)
// blob still fails verification instead of serving the wrong object.
//
// Decode enforces: exact magic/version, known kind, minimal uvarint,
// name length bounded by the bytes actually present (allocation is bounded
// by len(data)), and decode-accepted ⇒ re-encode byte-identical. The
// layout is pinned by testdata/casblob_v1.golden.

import (
	"encoding/binary"
	"fmt"

	"statefulcc/internal/codegen"
)

// BlobFormatVersion is the blob layout version this package writes. It is
// part of every action key, so a layout change (like a compiler upgrade)
// simply stops sharing with older processes instead of confusing them.
const BlobFormatVersion = 1

// Blob kinds.
const (
	// KindObject: the payload is an encoded codegen.Object.
	KindObject = 1
	// KindState: the payload is an encoded core.UnitState (internal/state
	// format) — the unit's dormancy records, shared so a second client's
	// recompiles skip dormant passes without warming up locally.
	KindState = 2
)

var blobMagic = [4]byte{'C', 'A', 'S', 'B'}

// Blob is a decoded blob: header fields plus the raw payload.
type Blob struct {
	Kind    int
	Action  Key
	Unit    string
	Payload []byte
}

// EncodeBlob renders the canonical blob bytes for a header + payload.
func EncodeBlob(kind int, action Key, unit string, payload []byte) []byte {
	out := make([]byte, 0, 4+1+1+KeyLen+binary.MaxVarintLen64+len(unit)+len(payload))
	out = append(out, blobMagic[:]...)
	out = append(out, byte(BlobFormatVersion), byte(kind))
	out = append(out, action[:]...)
	out = binary.AppendUvarint(out, uint64(len(unit)))
	out = append(out, unit...)
	out = append(out, payload...)
	return out
}

// DecodeBlob parses blob bytes. Allocation is bounded by len(data); an
// accepted input re-encodes byte-identically.
func DecodeBlob(data []byte) (*Blob, error) {
	const fixed = 4 + 1 + 1 + KeyLen
	if len(data) < fixed {
		return nil, fmt.Errorf("cas: blob too short (%d bytes): %w", len(data), ErrVerify)
	}
	if [4]byte(data[:4]) != blobMagic {
		return nil, fmt.Errorf("cas: bad blob magic: %w", ErrVerify)
	}
	if v := data[4]; v != BlobFormatVersion {
		return nil, fmt.Errorf("cas: blob format %d (want %d): %w", v, BlobFormatVersion, ErrVerify)
	}
	b := &Blob{Kind: int(data[5])}
	if b.Kind != KindObject && b.Kind != KindState {
		return nil, fmt.Errorf("cas: unknown blob kind %d: %w", b.Kind, ErrVerify)
	}
	copy(b.Action[:], data[6:6+KeyLen])
	rest := data[fixed:]
	n, un, err := uvarMin(rest)
	if err != nil {
		return nil, fmt.Errorf("cas: blob unit name length: %w", err)
	}
	rest = rest[un:]
	if n > uint64(len(rest)) {
		return nil, fmt.Errorf("cas: blob unit name length %d exceeds %d remaining bytes: %w",
			n, len(rest), ErrVerify)
	}
	b.Unit = string(rest[:n])
	b.Payload = rest[n:]
	return b, nil
}

// uvarMin decodes a uvarint and rejects non-minimal encodings (a padded
// length would decode fine but break re-encode identity, the property the
// fuzzer pins).
func uvarMin(data []byte) (v uint64, n int, err error) {
	v, n = binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("cas: truncated or overlong uvarint: %w", ErrVerify)
	}
	if n > 1 && data[n-1] == 0 {
		return 0, 0, fmt.Errorf("cas: non-minimal uvarint: %w", ErrVerify)
	}
	return v, n, nil
}

// ---- codegen.Object payload codec ----
//
// A deterministic field-by-field binary encoding of the pre-link object:
// signed fields as zigzag uvarints, strings and slices length-prefixed,
// counts validated against bytes remaining before any allocation. The
// decoded object links byte-identically to the original (the battery's
// oracle check), and decode-accepted ⇒ re-encode byte-identical.
//
// An instruction's wire form is older than its memory form and is kept byte
// for byte, because blob and action keys are hashes of these bytes: eight
// fields — Op, Sub, A, B, C, Imm, the else-target of an IBr, the string index
// of an IPrint or IAssert (-1 for every other opcode) — and the argument
// slots of an ICall or IPrint. codegen.Instr holds the last three in B, Imm
// and the function's argument pool (instrWire says which goes where); a wire
// instruction with a value in a field its opcode does not use has no memory
// form and is refused, so the compiler's objects are exactly what decodes.

// EncodeObject renders a compiled unit object as its canonical payload.
func EncodeObject(o *codegen.Object) []byte { return AppendObject(make([]byte, 0, 256), o) }

// AppendObject appends EncodeObject's payload of o to dst.
func AppendObject(dst []byte, o *codegen.Object) []byte {
	e := objEnc{buf: dst}
	e.str(o.Unit)
	e.uv(uint64(len(o.Globals)))
	for _, g := range o.Globals {
		e.str(g.Name)
		e.sv(g.Words)
		e.sv(g.Init)
	}
	e.uv(uint64(len(o.Funcs)))
	for _, f := range o.Funcs {
		e.str(f.Name)
		e.uv(uint64(f.NumParams))
		e.uv(uint64(f.NumSlots))
		e.uv(uint64(f.AllocaWords))
		e.bool(f.HasResult)
		e.uv(uint64(len(f.Code)))
		for i := range f.Code {
			in := &f.Code[i]
			w := wireOf(f, in)
			e.buf = append(e.buf, byte(in.Op), in.Sub)
			e.sv(int64(in.A))
			e.sv(int64(w.b))
			e.sv(int64(w.c))
			e.sv(w.imm)
			e.sv(w.elseTarget)
			e.sv(w.str)
			e.uv(uint64(len(w.args)))
			for _, a := range w.args {
				e.sv(int64(a))
			}
		}
	}
	e.uv(uint64(len(o.Strings)))
	for _, s := range o.Strings {
		e.str(s)
	}
	e.relocs(o.Relocs)
	e.relocs(o.GlobalRelocs)
	e.uv(uint64(len(o.Externs)))
	for _, s := range o.Externs {
		e.str(s)
	}
	return e.buf
}

// DecodeObject parses an object payload. Every count is validated against
// the bytes actually remaining (one byte minimum per element) before its
// slice is allocated, so a hostile payload cannot force allocation beyond
// O(len(data)).
func DecodeObject(data []byte) (*codegen.Object, error) {
	d := &objDec{buf: data}
	o := &codegen.Object{}
	o.Unit = d.str()
	for range d.count(1) {
		o.Globals = append(o.Globals, codegen.GlobalDef{Name: d.str(), Words: d.sv(), Init: d.sv()})
	}
	for range d.count(4) {
		f := &codegen.FuncCode{
			Name:        d.str(),
			NumParams:   int(d.uv()),
			NumSlots:    int(d.uv()),
			AllocaWords: int(d.uv()),
			HasResult:   d.bool(),
		}
		if n := d.count(8); n > 0 {
			f.Code = make([]codegen.Instr, n)
		}
		for i := range f.Code {
			in := &f.Code[i]
			*in = codegen.Instr{Op: codegen.Opcode(d.byte()), Sub: d.byte()}
			in.A = d.i32()
			w := instrWire{b: d.i32(), c: d.i32(), imm: d.sv(), elseTarget: int64(d.i32()), str: int64(d.i32())}
			// The arguments go straight into the function's pool; into
			// refuses them on an opcode that has none.
			pooled := len(f.Args)
			for range d.count(1) {
				f.Args = append(f.Args, d.i32())
			}
			w.args = f.Args[pooled:]
			if !w.into(f, in) {
				d.fail("object instruction %d of %s: a field %s does not use is set", i, f.Name, in.Op)
			}
		}
		o.Funcs = append(o.Funcs, f)
	}
	for range d.count(1) {
		o.Strings = append(o.Strings, d.str())
	}
	o.Relocs = d.relocs()
	o.GlobalRelocs = d.relocs()
	for range d.count(1) {
		o.Externs = append(o.Externs, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("cas: %d trailing bytes after object: %w", len(d.buf), ErrVerify)
	}
	// What the linker and the VM index with — argument windows, jump
	// targets, string indices, relocation sites in order — is checked here,
	// so a blob that decodes can be linked and run without a second look.
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("cas: %v: %w", err, ErrVerify)
	}
	return o, nil
}

// instrWire is what an instruction's wire form has beyond Op, Sub and A.
type instrWire struct {
	b, c            int32
	imm             int64
	elseTarget, str int64
	args            []int32
}

// wireOf returns the wire form of in, an instruction of f.
func wireOf(f *codegen.FuncCode, in *codegen.Instr) instrWire {
	w := instrWire{b: in.B, c: in.C, imm: in.Imm, str: -1}
	switch in.Op {
	case codegen.ICall:
		w.b, w.c, w.args = 0, 0, f.ArgSlots(in)
	case codegen.IPrint:
		w.b, w.c, w.imm, w.str, w.args = 0, 0, 0, in.Imm, f.ArgSlots(in)
	case codegen.IAssert:
		w.imm, w.str = 0, in.Imm
	case codegen.IBr:
		w.b, w.elseTarget = 0, int64(in.B)
	}
	return w
}

// into completes in, an instruction of f whose Op is set, from its wire form;
// w.args are the last len(w.args) slots of f's pool. It reports whether w is
// the wire form of what it made — whether in encodes back to the bytes it
// came from.
func (w instrWire) into(f *codegen.FuncCode, in *codegen.Instr) bool {
	in.B, in.C, in.Imm = w.b, w.c, w.imm
	switch in.Op {
	case codegen.ICall, codegen.IPrint:
		in.B, in.C = int32(len(f.Args)-len(w.args)), int32(len(w.args))
		if in.Op == codegen.IPrint {
			in.Imm = w.str
		}
	case codegen.IAssert:
		in.Imm = w.str
	case codegen.IBr:
		in.B = int32(w.elseTarget)
	}
	back := wireOf(f, in)
	return back.b == w.b && back.c == w.c && back.imm == w.imm && back.elseTarget == w.elseTarget &&
		back.str == w.str && len(back.args) == len(w.args)
}

type objEnc struct{ buf []byte }

func (e *objEnc) uv(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *objEnc) sv(v int64)  { e.uv(uint64(v)<<1 ^ uint64(v>>63)) }
func (e *objEnc) str(s string) {
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *objEnc) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}
func (e *objEnc) relocs(rs []codegen.Reloc) {
	e.uv(uint64(len(rs)))
	for _, r := range rs {
		e.sv(int64(r.Func))
		e.sv(int64(r.Pc))
		e.str(r.Symbol)
	}
}

type objDec struct {
	buf []byte
	err error
}

func (d *objDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("cas: "+format+": %w", append(args, ErrVerify)...)
		d.buf = nil
	}
}

func (d *objDec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n, err := uvarMin(d.buf)
	if err != nil {
		d.fail("object varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *objDec) sv() int64 {
	v := d.uv()
	return int64(v>>1) ^ -int64(v&1)
}

func (d *objDec) i32() int32 {
	v := d.sv()
	if int64(int32(v)) != v {
		d.fail("object field %d overflows int32", v)
	}
	return int32(v)
}

func (d *objDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail("truncated object")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *objDec) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("object bool out of range")
		return false
	}
}

func (d *objDec) str() string {
	n := d.uv()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.fail("object string length %d exceeds %d remaining bytes", n, len(d.buf))
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// count reads an element count and bounds it by the bytes remaining (at
// least min bytes per element), so slice allocation stays O(len(input)).
func (d *objDec) count(min int) int {
	n := d.uv()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf))/uint64(min)+1 {
		d.fail("object count %d exceeds %d remaining bytes", n, len(d.buf))
		return 0
	}
	return int(n)
}

func (d *objDec) relocs() []codegen.Reloc {
	var out []codegen.Reloc
	for range d.count(3) {
		f, pc := d.sv(), d.sv()
		out = append(out, codegen.Reloc{Func: int(f), Pc: int(pc), Symbol: d.str()})
	}
	return out
}

package core

// The memo on disk: a unit's memo outlives its process in a memo file
// beside its state file (internal/state writes and reads it). AppendMemo
// encodes what this package keeps of the memo, the object and the key seed
// aside, which the file's header and the shared cache's codec carry; the
// encoding is pointer-free because the memo is. A memo whose compile
// replayed every function re-encodes to the bytes it was loaded from, so a
// rebuild of an unchanged unit writes nothing.
//
// Layout, little-endian, every count a u32:
//
//	nFuncs  { name:str memo:u32 code:u32 codeKey:u64 }   (by name)
//	len(buf) buf
//	nEnts   { in out fp:u64 off n:u32 hasFP:u8 }
//	nDecls  { head body:u64 headLen bodyLen:u32 func:u8 }
//	nFents  { key:u64 off n calls ncalls:u32 private:u8 }
//	nCallees { callee:str }
//	str = len:u32 bytes

import (
	"encoding/binary"
	"errors"
	"slices"

	"statefulcc/internal/codegen"
	"statefulcc/internal/ir"
)

// HasMemo reports whether the unit's state carries a memo to persist.
func (s *UnitState) HasMemo() bool { return s != nil && s.memo.seed != 0 }

// MemoObject returns the memo's last segment, the unit's last object (nil
// for none).
func (s *UnitState) MemoObject() *codegen.Object {
	if s == nil {
		return nil
	}
	return s.memo.obj
}

// AppendMemo appends the encoding of the unit's memo, its object and key
// seed aside, to dst.
func (s *UnitState) AppendMemo(dst []byte) []byte {
	le := binary.LittleEndian
	mm := &s.memo
	var names []string
	for name, fs := range s.Funcs {
		if fs.memo != 0 || fs.code != 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	dst = le.AppendUint32(dst, uint32(len(names)))
	for _, name := range names {
		fs := s.Funcs[name]
		dst = appendStr(dst, name)
		dst = le.AppendUint32(dst, uint32(fs.memo))
		dst = le.AppendUint32(dst, uint32(fs.code))
		dst = le.AppendUint64(dst, fs.codeKey)
	}
	dst = le.AppendUint32(dst, uint32(len(mm.buf)))
	dst = append(dst, mm.buf...)
	dst = le.AppendUint32(dst, uint32(len(mm.ents)))
	for _, e := range mm.ents {
		dst = le.AppendUint64(dst, e.in)
		dst = le.AppendUint64(dst, e.out)
		dst = le.AppendUint64(dst, e.fp)
		dst = le.AppendUint32(dst, e.off)
		dst = le.AppendUint32(dst, e.n)
		dst = append(dst, b2u(e.hasFP))
	}
	dst = le.AppendUint32(dst, uint32(len(mm.decls)))
	for _, k := range mm.decls {
		dst = le.AppendUint64(dst, k.Head)
		dst = le.AppendUint64(dst, k.Body)
		dst = le.AppendUint32(dst, uint32(k.HeadLen))
		dst = le.AppendUint32(dst, uint32(k.BodyLen))
		dst = append(dst, b2u(k.Func))
	}
	dst = le.AppendUint32(dst, uint32(len(mm.fents)))
	for _, e := range mm.fents {
		dst = le.AppendUint64(dst, e.key)
		dst = le.AppendUint32(dst, e.off)
		dst = le.AppendUint32(dst, e.n)
		dst = le.AppendUint32(dst, e.calls)
		dst = le.AppendUint32(dst, e.ncalls)
		dst = append(dst, b2u(e.private))
	}
	dst = le.AppendUint32(dst, uint32(len(mm.callees)))
	for _, c := range mm.callees {
		dst = appendStr(dst, c)
	}
	return dst
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// errMemo is a memo encoding that does not decode.
var errMemo = errors.New("malformed memo")

// LoadMemo makes the memo encoded in enc (AppendMemo), keyed under seed,
// with obj as its last segment, the unit's, pointing the states of its
// functions at their entries; a function the state has no records of gets
// an empty record block. The memo copies what it keeps of enc, so the
// caller's buffer can be freed. An encoding that does not decode, or whose
// offsets leave its buffers, is an error and leaves s as it was.
func (s *UnitState) LoadMemo(seed ir.KeySeed, enc []byte, obj *codegen.Object) error {
	d := memoDec{b: enc}
	type place struct {
		name       string
		memo, code int32
		codeKey    uint64
	}
	places := make([]place, d.count(20))
	for i := range places {
		places[i] = place{d.str(), int32(d.u32()), int32(d.u32()), d.u64()}
	}
	mm := memo{seed: seed, obj: obj}
	mm.buf = slices.Clone(d.take(int(d.u32())))
	mm.ents = make([]memoEntry, d.count(33))
	for i := range mm.ents {
		mm.ents[i] = memoEntry{in: d.u64(), out: d.u64(), fp: d.u64(), off: d.u32(), n: d.u32(), hasFP: d.flag()}
	}
	mm.decls = make([]DeclKey, d.count(25))
	for i := range mm.decls {
		mm.decls[i] = DeclKey{Head: d.u64(), Body: d.u64(), HeadLen: int32(d.u32()), BodyLen: int32(d.u32()), Func: d.flag()}
	}
	mm.fents = make([]frontEntry, d.count(25))
	for i := range mm.fents {
		mm.fents[i] = frontEntry{key: d.u64(), off: d.u32(), n: d.u32(), calls: d.u32(), ncalls: d.u32(), private: d.flag()}
	}
	mm.callees = make([]string, d.count(4))
	for i := range mm.callees {
		mm.callees[i] = d.str()
	}
	if d.bad || len(d.b) != 0 || seed == 0 {
		return errMemo
	}
	for _, e := range mm.ents {
		if uint64(e.off)+uint64(e.n) > uint64(len(mm.buf)) {
			return errMemo
		}
	}
	for _, e := range mm.fents {
		if uint64(e.off)+uint64(e.n) > uint64(len(mm.buf)) || uint64(e.calls)+uint64(e.ncalls) > uint64(len(mm.callees)) {
			return errMemo
		}
	}
	for _, p := range places {
		if p.memo < 0 || int(p.memo) > len(mm.ents) || p.code < 0 {
			return errMemo
		}
	}
	for _, fs := range s.Funcs {
		fs.memo, fs.code, fs.codeKey = 0, 0, 0
	}
	for _, p := range places {
		fs := s.funcState(p.name, len(s.ModuleSlots))
		fs.memo, fs.code, fs.codeKey = p.memo, p.code, p.codeKey
	}
	s.memo = mm
	return nil
}

// memoDec reads an AppendMemo encoding; bad is set at the first read past
// its end, after which every read returns zero.
type memoDec struct {
	b   []byte
	bad bool
}

func (d *memoDec) take(n int) []byte {
	if d.bad || n < 0 || n > len(d.b) {
		d.bad = true
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *memoDec) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *memoDec) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (d *memoDec) flag() bool {
	v := d.take(1)
	return v != nil && v[0] != 0
}

// count reads a count of elements of at least min bytes each, 0 when the
// bytes left cannot hold them.
func (d *memoDec) count(min int) int {
	n := d.u32()
	if uint64(n)*uint64(min) > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *memoDec) str() string { return string(d.take(int(d.u32()))) }

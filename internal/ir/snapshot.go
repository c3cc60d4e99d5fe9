package ir

// Snapshots: an exact, pointer-free encoding of one function's IR and its
// restore. Exact means everything a function pass can observe survives the
// round trip: value and block IDs, the next-ID counters, the order of
// blocks, phis, instructions, operands, incoming blocks and predecessors,
// and which operands share one constant. A restored function prints as the
// encoded one did, and the next pass numbers the values it creates as it
// would have on the original.
//
// The encoding is also its own key: a KeySeed hashes it, so two functions with
// equal keys are (up to a 64-bit collision) the same input to a
// deterministic function pass. fingerprint.Function is no substitute: it
// renumbers values densely, and a pass's output depends on the IDs it was
// given (the next value it creates is numbered after them).
//
// Layout, every integer a varint (uvarint unless noted). A value's ID is
// written as its distance from the ID after the previous value's, an
// operand's as its distance from its user's: both are small.
//
//	func    = nextValueID nextBlockID result:byte private:byte
//	          nParams {id type:byte aux:varint} nBlocks {block}
//	block   = id nPreds {predID} nPhis {value} nInstrs {value} hasTerm:byte [value]
//	value   = idDelta:varint flags|type<<5|op<<7 [aux:varint] [sym:str] [strAux:str]
//	          [nArgs {operand}] [nBlocks {blockID}]
//	str     = len bytes
//	operand = zigzag(user.ID-id)<<1 for a parameter or a value placed in a block;
//	          type<<2|1, then id aux:varint, for a constant's first use;
//	          idx<<2|3 for the constant first used idx-th.

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
	"unsafe"
)

// Value flags of the encoding: which optional fields follow.
const (
	snapAux = 1 << iota
	snapSym
	snapStrAux
	snapArgs
	snapBlocks
)

// A KeySeed seeds the keys of one unit's memo: its encodings' and its
// declarations'. The seed is random and kept with the memo, on disk
// too, so keys outlive the process that made them and still no input can
// aim at a collision without reading the state directory.
type KeySeed uint64

// NewKeySeed returns a random seed, never 0.
func NewKeySeed() KeySeed { return KeySeed(rand.Uint64() | 1) }

// The wyhash constants.
const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
	wyp2 = 0x8ebc6af09c88c6e3
	wyp3 = 0x589965cc75374cc3
)

func wymix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Sum is the 64-bit key of p under the seed (wyhash, final version 4).
func (s KeySeed) Sum(p []byte) uint64 {
	le := binary.LittleEndian
	seed := uint64(s)
	seed ^= wymix(seed^wyp0, wyp1)
	n := len(p)
	var a, b uint64
	switch {
	case n >= 4 && n <= 16:
		q := (n >> 3) << 2
		a = uint64(le.Uint32(p))<<32 | uint64(le.Uint32(p[q:]))
		b = uint64(le.Uint32(p[n-4:]))<<32 | uint64(le.Uint32(p[n-4-q:]))
	case n > 0 && n < 4:
		a = uint64(p[0])<<16 | uint64(p[n>>1])<<8 | uint64(p[n-1])
	case n > 16:
		off, i := 0, n
		if i > 48 {
			see1, see2 := seed, seed
			for ; i > 48; off, i = off+48, i-48 {
				seed = wymix(le.Uint64(p[off:])^wyp1, le.Uint64(p[off+8:])^seed)
				see1 = wymix(le.Uint64(p[off+16:])^wyp2, le.Uint64(p[off+24:])^see1)
				see2 = wymix(le.Uint64(p[off+32:])^wyp3, le.Uint64(p[off+40:])^see2)
			}
			seed ^= see1 ^ see2
		}
		for ; i > 16; off, i = off+16, i-16 {
			seed = wymix(le.Uint64(p[off:])^wyp1, le.Uint64(p[off+8:])^seed)
		}
		a, b = le.Uint64(p[off+i-16:]), le.Uint64(p[off+i-8:])
	}
	a ^= wyp1
	b ^= seed
	hi, lo := bits.Mul64(a, b)
	return wymix(lo^wyp0^uint64(n), hi^wyp1)
}

// Snapshot is one worker's memory for encoding and restoring functions:
// dense tables indexed by value, block and constant ID, reused from
// function to function. The zero value is ready; one goroutine at a time.
// Release drops its references into the IR.
type Snapshot struct {
	// placed[id] is epoch when the function being encoded has a parameter
	// or a placed value numbered id, inBlocks[id] when its layout has a
	// block numbered id. The epoch moves on with each function, so the
	// tables are never cleared.
	placed, inBlocks []uint32
	epoch            uint32
	// forward lists the IDs of values (id) and blocks (^id) referenced
	// before the walk reached them; they must have been reached by its end.
	forward []int
	// constAddr[i] is the address of the constant first used i-th and
	// constAt[id] is 1 + the index of the constant numbered id. A constant's
	// ID is its function's or, after inlining, the callee's, so two may
	// share one: the address decides. An address is compared, never
	// followed, and the constants are alive while their function is
	// encoded, so none of these tables holds a pointer.
	constAddr []uintptr
	constIDs  []int
	constAt   []int32
	// key is the encoding Key hashes.
	key []byte
	// prev is the ID of the value last encoded or decoded.
	prev int

	// A restore's tables: the restored value, block and constant of each
	// number, and the strings of the body it replaces.
	own    []*Value
	blocks []*Block
	consts []*Value
	strs   []string
}

// Release drops the references into the IR a restore left in the
// snapshot, keeping its memory.
func (s *Snapshot) Release() {
	Wipe(s.own)
	Wipe(s.blocks)
	Wipe(s.consts)
	Wipe(s.strs)
	s.consts, s.strs = s.consts[:0], s.strs[:0]
}

// Key returns the key of f's encoding under seed, or false when f cannot be
// encoded (see AppendFunc).
func (s *Snapshot) Key(f *Func, seed KeySeed) (uint64, bool) {
	enc, ok := s.AppendFunc(s.key[:0], f)
	if !ok {
		return 0, false
	}
	s.key = enc
	return seed.Sum(enc), true
}

// AppendFunc appends f's encoding to dst. It reports false, and returns dst
// unchanged, when f's IR is not what a pass leaves behind and so has no
// exact encoding: an operand that is neither a constant nor a value of f, a
// block reference outside f's layout, a value placed twice or in a block
// its Block field does not name, or a constant or parameter placed in a
// block. IDs are unique within a function (Verify checks it), so a value or
// block of f is told by its number.
func (s *Snapshot) AppendFunc(dst []byte, f *Func) ([]byte, bool) {
	s.epoch++
	if s.epoch == 0 {
		clear(s.placed)
		clear(s.inBlocks)
		s.epoch = 1
	}
	ep := s.epoch
	s.placed = Grow(s.placed, f.nextValueID)
	s.inBlocks = Grow(s.inBlocks, f.nextBlockID)
	s.forward, s.prev = s.forward[:0], -1
	start := len(dst)
	dst = appendUvarint(dst, uint64(f.nextValueID))
	dst = appendUvarint(dst, uint64(f.nextBlockID))
	priv := byte(0)
	if f.Private {
		priv = 1
	}
	dst = append(dst, byte(f.Result), priv)
	dst = appendUvarint(dst, uint64(len(f.Params)))
	ok := true
	for _, p := range f.Params {
		if uint(p.ID) >= uint(len(s.placed)) || s.placed[p.ID] == ep || p.Op != OpParam || p.Block != nil {
			ok = false
			break
		}
		s.placed[p.ID] = ep
		dst = appendUvarint(dst, uint64(p.ID))
		dst = append(dst, byte(p.Type))
		dst = binary.AppendVarint(dst, p.Aux)
	}
	dst = appendUvarint(dst, uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		if !ok {
			break
		}
		if uint(b.ID) >= uint(len(s.inBlocks)) || s.inBlocks[b.ID] == ep || b.Func != f {
			ok = false
			break
		}
		s.inBlocks[b.ID] = ep
		dst = appendUvarint(dst, uint64(b.ID))
		dst = appendUvarint(dst, uint64(len(b.Preds)))
		for _, p := range b.Preds {
			dst = s.appendBlockRef(dst, p)
		}
		dst = appendUvarint(dst, uint64(len(b.Phis)))
		for _, v := range b.Phis {
			dst, ok = s.appendValue(dst, b, v, ok)
		}
		dst = appendUvarint(dst, uint64(len(b.Instrs)))
		for _, v := range b.Instrs {
			dst, ok = s.appendValue(dst, b, v, ok)
		}
		if b.Term == nil {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst, ok = s.appendValue(dst, b, b.Term, ok)
		}
	}
	for _, id := range s.forward {
		if id >= 0 && s.placed[id] != ep || id < 0 && s.inBlocks[^id] != ep {
			ok = false
		}
	}
	for _, id := range s.constIDs {
		s.constAt[id] = 0
	}
	s.constAddr, s.constIDs = s.constAddr[:0], s.constIDs[:0]
	if !ok {
		return dst[:start], false
	}
	return dst, true
}

// appendUvarint is binary.AppendUvarint with the one-byte case first.
func appendUvarint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	return binary.AppendUvarint(dst, x)
}

// appendBlockRef appends a block operand, noting it when the walk has not
// reached it yet.
func (s *Snapshot) appendBlockRef(dst []byte, b *Block) []byte {
	if uint(b.ID) >= uint(len(s.inBlocks)) {
		s.forward = append(s.forward, ^len(s.inBlocks)) // never reached: fails
	} else if s.inBlocks[b.ID] != s.epoch {
		s.forward = append(s.forward, ^b.ID)
	}
	return appendUvarint(dst, uint64(b.ID))
}

// appendValue appends v, placed in block b; ok turns false when v is not
// where it says it is.
func (s *Snapshot) appendValue(dst []byte, b *Block, v *Value, ok bool) ([]byte, bool) {
	if uint(v.ID) >= uint(len(s.placed)) || s.placed[v.ID] == s.epoch || v.Block != b ||
		v.Op == OpConst || v.Op == OpParam || v.Op >= 1<<6 || v.Type >= 1<<2 {
		return dst, false
	}
	s.placed[v.ID] = s.epoch
	dst = binary.AppendVarint(dst, int64(v.ID-s.prev-1))
	s.prev = v.ID
	var flags uint64
	if v.Aux != 0 {
		flags |= snapAux
	}
	if v.Sym != "" {
		flags |= snapSym
	}
	if v.StrAux != "" {
		flags |= snapStrAux
	}
	if len(v.Args) > 0 {
		flags |= snapArgs
	}
	if len(v.Blocks) > 0 {
		flags |= snapBlocks
	}
	dst = appendUvarint(dst, flags|uint64(v.Type)<<5|uint64(v.Op)<<7)
	if flags&snapAux != 0 {
		dst = binary.AppendVarint(dst, v.Aux)
	}
	if flags&snapSym != 0 {
		dst = appendUvarint(dst, uint64(len(v.Sym)))
		dst = append(dst, v.Sym...)
	}
	if flags&snapStrAux != 0 {
		dst = appendUvarint(dst, uint64(len(v.StrAux)))
		dst = append(dst, v.StrAux...)
	}
	if flags&snapArgs != 0 {
		dst = appendUvarint(dst, uint64(len(v.Args)))
		for _, a := range v.Args {
			if a.Op == OpConst {
				dst = s.appendConst(dst, a)
				continue
			}
			if uint(a.ID) >= uint(len(s.placed)) {
				ok = false
			} else if s.placed[a.ID] != s.epoch {
				s.forward = append(s.forward, a.ID)
			}
			d := int64(v.ID - a.ID)
			dst = appendUvarint(dst, (uint64(d<<1)^uint64(d>>63))<<1)
		}
	}
	if flags&snapBlocks != 0 {
		dst = appendUvarint(dst, uint64(len(v.Blocks)))
		for _, b := range v.Blocks {
			dst = s.appendBlockRef(dst, b)
		}
	}
	return dst, ok
}

// appendConst appends a constant operand: its fields at its first use, its
// first-use index after.
func (s *Snapshot) appendConst(dst []byte, c *Value) []byte {
	if c.ID >= len(s.constAt) {
		s.constAt = Grow(s.constAt, c.ID+1)
	}
	addr := uintptr(unsafe.Pointer(c))
	if i := s.constAt[c.ID]; i > 0 && s.constAddr[i-1] == addr {
		return appendUvarint(dst, uint64(i-1)<<2|3)
	} else if i > 0 {
		// Another constant holds the ID: look the address up.
		for i, k := range s.constAddr {
			if k == addr {
				return appendUvarint(dst, uint64(i)<<2|3)
			}
		}
	} else {
		s.constAt[c.ID] = int32(len(s.constAddr) + 1)
		s.constIDs = append(s.constIDs, c.ID)
	}
	s.constAddr = append(s.constAddr, addr)
	dst = appendUvarint(dst, uint64(c.Type)<<2|1)
	dst = appendUvarint(dst, uint64(c.ID))
	return binary.AppendVarint(dst, c.Aux)
}

// RestoreFunc replaces f's parameters, body and ID counters with the ones
// enc (an AppendFunc encoding) holds, cut from f's slab. The strings it
// needs are taken from f's current body where they occur there, so a
// restore over the body it was recorded from allocates none. Constants are
// f's own afterwards: operands that shared one constant share one again.
func (s *Snapshot) RestoreFunc(f *Func, enc []byte) {
	s.gatherStrings(f)
	r := snapReader{b: enc}
	nv, nb := r.int(), r.int()
	f.Result = Type(r.byte())
	f.Private = r.byte() != 0
	s.own = Dense(s.own, nv)
	s.blocks = Dense(s.blocks, nb)
	s.consts, s.prev = s.consts[:0], -1
	mem := f.slab()

	np := r.int()
	if len(f.Params) != np {
		f.Params = make([]*Value, np)
	}
	for i := range f.Params {
		p := s.value(f, r.int())
		p.Op, p.Type, p.Aux = OpParam, Type(r.byte()), r.varint()
		f.Params[i] = p
	}
	f.Blocks = nil
	if n := r.int(); n > 0 {
		f.Blocks = cut(&mem.blkPtrs, n)
	}
	for i := range f.Blocks {
		b := s.block(f, r.int())
		f.Blocks[i] = b
		if n := r.int(); n > 0 {
			// Room for two, as SetTerm gives every block.
			b.Preds = cut(&mem.blkPtrs, max(n, 2))[:n]
			for j := range b.Preds {
				b.Preds[j] = s.block(f, r.int())
			}
		}
		if n := r.int(); n > 0 {
			b.Phis = cut(&mem.valPtrs, n)
			for j := range b.Phis {
				b.Phis[j] = s.readValue(f, &r, b)
			}
		}
		if n := r.int(); n > 0 {
			b.Instrs = cut(&mem.valPtrs, n)
			for j := range b.Instrs {
				b.Instrs[j] = s.readValue(f, &r, b)
			}
		}
		if r.byte() != 0 {
			b.Term = s.readValue(f, &r, b)
		}
	}
	f.nextValueID, f.nextBlockID = nv, nb
}

// gatherStrings collects the distinct symbols and labels of f's body.
func (s *Snapshot) gatherStrings(f *Func) {
	s.strs = s.strs[:0]
	add := func(str string) {
		if str == "" {
			return
		}
		for _, t := range s.strs {
			if t == str {
				return
			}
		}
		s.strs = append(s.strs, str)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			add(v.Sym)
			add(v.StrAux)
		}
	}
}

// str returns the string of b: one of the gathered strings when it is
// there.
func (s *Snapshot) str(b []byte) string {
	for _, t := range s.strs {
		if t == string(b) {
			return t
		}
	}
	return string(b)
}

// value returns the restored value numbered id, creating it on first
// reference.
func (s *Snapshot) value(f *Func, id int) *Value {
	v := s.own[id]
	if v == nil {
		v = &cut(&f.slab().values, 1)[0]
		v.ID = id
		s.own[id] = v
	}
	return v
}

// block returns the restored block numbered id, creating it on first
// reference.
func (s *Snapshot) block(f *Func, id int) *Block {
	b := s.blocks[id]
	if b == nil {
		b = &cut(&f.slab().blocks, 1)[0]
		b.ID, b.Func = id, f
		s.blocks[id] = b
	}
	return b
}

// readValue decodes one value placed in block b.
func (s *Snapshot) readValue(f *Func, r *snapReader, b *Block) *Value {
	mem := f.slab()
	s.prev += int(r.varint()) + 1
	v := s.value(f, s.prev)
	h := r.uvarint()
	flags := h & (1<<5 - 1)
	v.Op, v.Type, v.Block = Op(h>>7), Type(h>>5&3), b
	if flags&snapAux != 0 {
		v.Aux = r.varint()
	}
	if flags&snapSym != 0 {
		v.Sym = s.str(r.bytes())
	}
	if flags&snapStrAux != 0 {
		v.StrAux = s.str(r.bytes())
	}
	if flags&snapArgs != 0 {
		v.Args = cut(&mem.valPtrs, r.int())
		for i := range v.Args {
			v.Args[i] = s.readOperand(f, r, v.ID)
		}
	}
	if flags&snapBlocks != 0 {
		v.Blocks = cut(&mem.blkPtrs, r.int())
		for i := range v.Blocks {
			v.Blocks[i] = s.block(f, r.int())
		}
	}
	return v
}

// readOperand decodes one operand of the value numbered user.
func (s *Snapshot) readOperand(f *Func, r *snapReader, user int) *Value {
	w := r.uvarint()
	switch {
	case w&1 == 0:
		z := w >> 1
		return s.value(f, user-int(int64(z>>1)^-int64(z&1)))
	case w&3 == 3:
		return s.consts[w>>2]
	}
	c := &cut(&f.slab().values, 1)[0]
	c.Op, c.Type = OpConst, Type(w>>2)
	c.ID, c.Aux = r.int(), r.varint()
	s.consts = append(s.consts, c)
	return c
}

// snapReader decodes an encoding AppendFunc made; it trusts it.
type snapReader struct{ b []byte }

func (r *snapReader) byte() byte {
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *snapReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *snapReader) int() int { return int(r.uvarint()) }

func (r *snapReader) varint() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *snapReader) bytes() []byte {
	n := r.int()
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// Package fingerprint computes stable structural hashes of IR.
//
// The hash is the identity the stateful compiler's dormancy records are
// keyed by, so it must satisfy two properties:
//
//   - Stability: rebuilding identical source in a fresh process yields the
//     same hash — nothing position-, pointer-, or map-order-dependent may
//     leak in. Value references are therefore renumbered densely in
//     traversal order, and blocks are referenced by layout index.
//
//   - Sensitivity: any change a pass could observe must change the hash —
//     opcodes, types, operands, constants, callee names, block structure,
//     phi wiring.
//
// The hash is hierarchical: each basic block is hashed independently into
// a 64-bit sub-hash, and the function hash folds the sub-hashes in layout
// order. No sub-hash is reused; the hierarchy stays because it defines the
// values every persisted dormancy record is keyed by, and flattening it
// would move all of them (testdata/function_fingerprints.json pins them).
//
// The underlying hash is FNV-seeded splitmix64 word mixing, chosen because
// dormancy records are advisory identities within a trusted cache, not
// security boundaries, and hashing sits on the hot path of every
// incremental compile.
package fingerprint

import (
	"sort"
	"sync"

	"statefulcc/internal/ir"
)

const seedOffset = 14695981039346656037

// Hasher accumulates a word-oriented mixing hash over typed fields. Each
// 64-bit word costs one xor plus a splitmix64 finalizer round — roughly
// 30× cheaper than byte-wise FNV on the instruction encodings this package
// hashes, which matters because fingerprinting sits on the incremental
// compile hot path.
type Hasher struct {
	h uint64
}

// New returns a fresh hasher. Hot paths that create hashers per item should
// use Get/Put instead, which recycle hashers through a sync.Pool.
func New() *Hasher { return &Hasher{h: seedOffset} }

// Reset returns the hasher to its initial state, equivalent to New.
func (h *Hasher) Reset() { h.h = seedOffset }

var hasherPool = sync.Pool{New: func() any { return New() }}

// Get returns a reset hasher from the package pool. Pair with Put.
func Get() *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.Reset()
	return h
}

// Put recycles a hasher obtained from Get. The hasher must not be used
// after Put.
func Put(h *Hasher) { hasherPool.Put(h) }

// Sum returns the current hash value.
func (h *Hasher) Sum() uint64 { return mix64(h.h) }

// Byte folds one byte into the hash.
func (h *Hasher) Byte(b byte) {
	h.Uint64(uint64(b) | 0x100)
}

// Uint64 folds a 64-bit value.
func (h *Hasher) Uint64(v uint64) {
	h.h = mix64(h.h ^ mix64(v+0x9e3779b97f4a7c15))
}

// Int folds a signed integer.
func (h *Hasher) Int(v int64) { h.Uint64(uint64(v)) }

// String folds a length-prefixed string, eight bytes per round. The length
// prefix makes the tail word unambiguous — a short tail word can never
// collide with a full word of another string — so the tail needs no
// separate length re-derivation, just the remaining bytes packed once.
func (h *Hasher) String(s string) { foldText(h, s) }

// Bytes folds b exactly as String folds string(b), without making the
// string.
func (h *Hasher) Bytes(b []byte) { foldText(h, b) }

func foldText[T ~string | ~[]byte](h *Hasher, s T) {
	h.Uint64(uint64(len(s)))
	for len(s) >= 8 {
		h.Uint64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var w uint64
		for j := 0; j < len(s); j++ {
			w |= uint64(s[j]) << (8 * j)
		}
		h.Uint64(w)
	}
}

// mix64 is a splitmix64 finalizer, used to build order-insensitive
// multiset hashes: elements are mixed individually and summed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scratch holds the reusable working state of one function hash: the dense
// value-renumbering table and the block-index table. Pooled so
// steady-state fingerprinting allocates nothing.
type scratch struct {
	num      []int32
	blockIdx []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// number fills the dense renumbering: params, then phis and instructions
// in layout order. Constants are encoded inline rather than numbered. The
// tables are zeroed first so that hashes stay deterministic even across
// scratch reuse.
func (sc *scratch) number(f *ir.Func) {
	sc.num = grow(sc.num, f.NumValues())
	clear(sc.num)
	sc.blockIdx = grow(sc.blockIdx, f.NumBlockIDs())
	clear(sc.blockIdx)
	for i, p := range f.Params {
		sc.num[p.ID] = int32(i)
	}
	next := int32(len(f.Params))
	for i, b := range f.Blocks {
		sc.blockIdx[b.ID] = int32(i)
		for _, v := range b.Phis {
			sc.num[v.ID] = next
			next++
		}
		for _, v := range b.Instrs {
			sc.num[v.ID] = next
			next++
		}
	}
}

// ref folds one operand in a single round for value references; constants
// take two rounds (marker+type, then the payload).
func (sc *scratch) ref(h *Hasher, v *ir.Value) {
	if v.Op == ir.OpConst {
		h.Uint64(0xC0DE<<32 | uint64(v.Type))
		h.Int(v.Aux)
		return
	}
	h.Uint64(uint64(sc.num[v.ID])<<2 | 1)
}

func (sc *scratch) hashValue(h *Hasher, v *ir.Value) {
	// One word packs opcode, type, and operand counts.
	h.Uint64(uint64(v.Op) | uint64(v.Type)<<8 | uint64(len(v.Args))<<16 | uint64(len(v.Blocks))<<32)
	h.Int(v.Aux)
	if v.Sym != "" || v.Op == ir.OpCall || v.Op == ir.OpGlobalAddr {
		h.String(v.Sym)
	}
	if v.StrAux != "" || v.Op == ir.OpPrint || v.Op == ir.OpAssert {
		h.String(v.StrAux)
	}
	for _, a := range v.Args {
		sc.ref(h, a)
	}
	for _, b := range v.Blocks {
		h.Int(int64(sc.blockIdx[b.ID]))
	}
}

// hashPhi hashes a phi's (block, value) pairs as a multiset so that
// operand order — which tracks pred-list maintenance order — does not
// affect the fingerprint. Each pair is mixed into one word and the words
// are summed (a commutative combiner).
func (sc *scratch) hashPhi(h *Hasher, v *ir.Value) {
	h.Byte(byte(v.Op))
	h.Byte(byte(v.Type))
	h.Int(int64(len(v.Args)))
	var set uint64
	for i, a := range v.Args {
		var valWord uint64
		if a.Op == ir.OpConst {
			valWord = 0xC000_0000_0000_0000 ^ uint64(a.Aux)<<8 ^ uint64(a.Type)
		} else {
			valWord = uint64(sc.num[a.ID])<<8 | 0x01
		}
		pair := mix64(valWord) + mix64(uint64(sc.blockIdx[v.Blocks[i].ID])^0xabcdef12345)
		set += mix64(pair)
	}
	h.Uint64(set)
}

// hashBlock computes one block's sub-hash. The encoding references other
// blocks and their values only through the dense numbering and layout
// indices, never through pointers or IDs.
func (sc *scratch) hashBlock(b *ir.Block) uint64 {
	var h Hasher
	h.Reset()
	h.Int(int64(len(b.Preds)))
	// Preds as an index multiset: pred-list order is a maintenance
	// detail, not semantics.
	var predSet uint64
	for _, p := range b.Preds {
		predSet += mix64(uint64(sc.blockIdx[p.ID]) + 0x9e3779b97f4a7c15)
	}
	h.Uint64(predSet)
	h.Int(int64(len(b.Phis)))
	for _, v := range b.Phis {
		sc.hashPhi(&h, v)
	}
	h.Int(int64(len(b.Instrs)))
	for _, v := range b.Instrs {
		sc.hashValue(&h, v)
	}
	if b.Term != nil {
		sc.hashValue(&h, b.Term)
	} else {
		h.Byte(0xFF)
	}
	return h.Sum()
}

// Function fingerprints one function's IR: each block's sub-hash, folded
// in layout order after the signature.
//
// The implementation sits on every incremental compile's hot path, so it
// avoids maps, sorting, and steady-state allocation: value and block
// renumbering use pooled dense slices indexed by ID, and order-insensitive
// collections (pred lists, phi operands) are folded with a commutative
// multiset combiner instead of being sorted.
func Function(f *ir.Func) uint64 {
	sc := scratchPool.Get().(*scratch)
	sc.number(f)

	var h Hasher
	h.Reset()
	h.String(f.Name)
	h.Int(int64(len(f.Params)))
	for _, p := range f.Params {
		h.Byte(byte(p.Type))
	}
	h.Byte(byte(f.Result))
	h.Int(int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		h.Uint64(sc.hashBlock(b))
	}
	scratchPool.Put(sc)
	return h.Sum()
}

// Module fingerprints a whole module: globals, externs, and all functions
// in name order (declaration order is irrelevant to module passes).
func Module(m *ir.Module) uint64 {
	return ModuleWith(m, Function)
}

// ModuleWith is Module with a pluggable per-function hash, letting callers
// that cache function fingerprints (the stateful pass manager) avoid
// rehashing every function on every module-pass boundary.
func ModuleWith(m *ir.Module, funcHash func(*ir.Func) uint64) uint64 {
	h := Get()
	defer Put(h)
	h.String(m.Unit)
	h.Int(int64(len(m.Globals)))
	for _, g := range m.Globals {
		h.String(g.Name)
		h.Int(g.Words)
		h.Int(g.Init)
		if g.Private {
			h.Byte(1)
		} else {
			h.Byte(0)
		}
	}
	ext := append([]string(nil), m.Externs...)
	sort.Strings(ext)
	for _, e := range ext {
		h.String(e)
	}
	fns := make([]*ir.Func, len(m.Funcs))
	copy(fns, m.Funcs)
	sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	for _, f := range fns {
		h.Uint64(funcHash(f))
	}
	return h.Sum()
}

// Strings fingerprints a string slice (used for pipeline configuration
// hashes).
func Strings(ss []string) uint64 {
	h := Get()
	defer Put(h)
	h.Int(int64(len(ss)))
	for _, s := range ss {
		h.String(s)
	}
	return h.Sum()
}

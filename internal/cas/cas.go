// Package cas is the content-addressed artifact store under the shared
// build cache: compiled unit objects and per-unit dormancy records keyed
// by content hash, shared between builder processes and machines
// (docs/ARCHITECTURE.md).
//
// Two namespaces:
//
//   - blobs are immutable byte strings addressed by the hash of their own
//     bytes. Every read — every backend, every layer — re-hashes what it
//     got and rejects a blob whose bytes do not hash to its key
//     (ErrVerify). A poisoned blob is therefore a cache miss, never a
//     wrong cache hit: the LaForge correctness bar a shared cache must
//     clear (PAPERS.md).
//
//   - actions map an action key — the hash of everything that determines a
//     compile's output: compiler state version, blob format, mode,
//     pipeline, unit name, source bytes — to the blob key of the result.
//     An action entry cannot be self-verifying (its content is a different
//     hash), so the blob it names carries the action key in its header and
//     clients verify the header against the action they asked for: a
//     poisoned action entry is also just a miss.
//
// Backends: DiskCAS (sharded objects/ab/<key> layout, atomic
// fsync-before-rename writes through the vfs seam), MemCAS (bounded LRU,
// tests and hot tier), HTTPCAS (client for the `minibuild serve` /cas/
// endpoints, with deadline budgets, retries and a circuit breaker). Server
// is the Store a serve instance hosts: one namespace over one backing store,
// held to a store-wide byte bound by LRU eviction.
package cas

import (
	"errors"
	"fmt"

	"statefulcc/internal/fingerprint"
)

// KeyLen is the raw key length in bytes; KeyHexLen its rendered length.
const (
	KeyLen    = 16
	KeyHexLen = 2 * KeyLen
)

// Key is a 128-bit content address, rendered as 32 lowercase hex digits.
// The zero Key is "no key" and is never a valid content address in the
// store (Sum never returns it for any input the stack stores: both halves
// would have to collide with zero).
type Key [KeyLen]byte

// Zero reports whether k is the zero ("no key") value.
func (k Key) Zero() bool { return k == Key{} }

const hexDigits = "0123456789abcdef"

// String renders the key as 32 lowercase hex digits.
func (k Key) String() string {
	var buf [KeyHexLen]byte
	for i, b := range k {
		buf[2*i] = hexDigits[b>>4]
		buf[2*i+1] = hexDigits[b&0xF]
	}
	return string(buf[:])
}

// Shard is the two-digit directory shard of the key ("ab" of "abcdef…").
func (k Key) Shard() string { return k.String()[:2] }

// ParseKey parses the canonical 32-lowercase-hex rendering. Anything else
// — wrong length, uppercase, non-hex — is an error: keys travel over the
// wire and name files on disk, so there is exactly one accepted spelling.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != KeyHexLen {
		return k, fmt.Errorf("cas: key %q: want %d hex digits, have %d", s, KeyHexLen, len(s))
	}
	for i := 0; i < KeyHexLen; i += 2 {
		hi, ok1 := hexVal(s[i])
		lo, ok2 := hexVal(s[i+1])
		if !ok1 || !ok2 {
			return Key{}, fmt.Errorf("cas: key %q: invalid hex digit at %d", s, i)
		}
		k[i/2] = hi<<4 | lo
	}
	return k, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// Sum computes the content address of data: two independent passes of the
// repo's fingerprint hash under distinct domain-separation prefixes, giving
// a 128-bit key. (The fingerprint hash is the house identity function; two
// domain-separated passes keep the key width honest for a shared store
// without importing a crypto dependency the repo does not have.)
func Sum(data []byte) Key {
	var k Key
	h := fingerprint.New()
	h.Byte(0x1d)
	h.String(string(data))
	a := h.Sum()
	h.Reset()
	h.Byte(0x2e)
	h.String(string(data))
	b := h.Sum()
	for i := 0; i < 8; i++ {
		k[i] = byte(a >> (8 * (7 - i)))
		k[8+i] = byte(b >> (8 * (7 - i)))
	}
	return k
}

// ActionKey derives the action key for one unit compile: the hash of
// everything that determines the compiled object's bytes. stateVersion is
// core.StateVersion (the paper's compiler-upgrade rule: a new compiler
// never reuses an old compiler's artifacts), blobFormat the cas blob
// layout version, mode the compilation policy, pipeline the pass list.
// Every part is length-prefixed so no two part sequences collide.
func ActionKey(domain string, stateVersion, blobFormat int, mode string, pipeline []string, unit string, src []byte) Key {
	h := fingerprint.New()
	h.String(domain)
	h.Int(int64(stateVersion))
	h.Int(int64(blobFormat))
	h.String(mode)
	h.Int(int64(len(pipeline)))
	for _, p := range pipeline {
		h.String(p)
	}
	h.String(unit)
	h.String(string(src))
	a := h.Sum()
	// Second, domain-separated pass for the low half (mirrors Sum).
	h.Reset()
	h.Byte(0x3f)
	h.Uint64(a)
	h.String(domain)
	h.String(unit)
	h.String(string(src))
	b := h.Sum()
	var k Key
	for i := 0; i < 8; i++ {
		k[i] = byte(a >> (8 * (7 - i)))
		k[8+i] = byte(b >> (8 * (7 - i)))
	}
	return k
}

// Sentinel errors every backend maps onto. Callers branch with errors.Is;
// anything else is an I/O-layer failure (degrade, warn, recompile).
var (
	// ErrNotFound: the key has no blob / the action has no entry. A plain
	// miss.
	ErrNotFound = errors.New("cas: not found")
	// ErrVerify: bytes exist but fail verification — blob bytes that do not
	// hash to their key, a malformed action entry, or a blob header that
	// does not match the action asked for. Callers MUST treat this as a
	// miss (recompile), never serve the bytes, and count it
	// (cas.verify_failed).
	ErrVerify = errors.New("cas: verification failed")
	// ErrQuota: the write was refused because it cannot fit the store's
	// byte bound even after eviction.
	ErrQuota = errors.New("cas: quota exceeded")
	// ErrUnavailable: the backend is temporarily unreachable and the client
	// declined to wait — the circuit breaker is open, or every admitted
	// attempt burned out. Callers MUST treat this as a miss (compile
	// locally) and never as a retryable condition: the breaker owns
	// recovery via its half-open probes.
	ErrUnavailable = errors.New("cas: backend unavailable")
)

// Store is the pluggable backend interface. All implementations are safe
// for concurrent use and verify blob bytes against their key on both read
// and write.
type Store interface {
	// Get returns the blob's bytes after verifying Sum(bytes) == key.
	// Returns ErrNotFound for an absent key and ErrVerify for a poisoned
	// blob (which the backend may additionally quarantine or delete so the
	// store never stays corrupt).
	Get(key Key) ([]byte, error)
	// Put stores data under key after verifying Sum(data) == key
	// (ErrVerify otherwise). Idempotent: re-putting an existing key is a
	// no-op. May return ErrQuota.
	Put(key Key, data []byte) error
	// Has reports whether the key exists (no verification).
	Has(key Key) (bool, error)
	// Delete removes a blob (absent keys are not an error).
	Delete(key Key) error
	// ActionGet resolves an action key to the blob key of its result
	// (ErrNotFound when absent, ErrVerify when the stored entry is
	// malformed).
	ActionGet(action Key) (Key, error)
	// ActionPut records action → blob. Last writer wins; entries are tiny
	// and advisory (the blob header is what clients trust).
	ActionPut(action, blob Key) error
}

// Package footprint records what a unit's compilation actually read — the
// dependency footprint — and derives the *true* invalidation set from it.
//
// The build system's declared invalidation model (content-hash the unit's
// source, reuse the cached object on a match) is an assumption; this
// package is the instrument that checks it on every build, the
// always-correct-mode discipline of LaForge and of "Detecting Build
// Dependency Errors in Incremental Builds" (PAPERS.md). During a compile a
// Trace gathers:
//
//   - the unit's own source bytes (KindSource) and the pipeline
//     configuration (KindPipeline) — the *invalidating* entries: if either
//     ground-truth hash moved, the cached object is stale;
//   - cross-unit symbol reads resolved at link time (KindCall with the call
//     arity as its hash, KindGlobal) — the *link-scope* entries: re-checked
//     by the linker on every build, recorded so `minibuild deps` can print
//     the real cross-unit dependency graph;
//   - filesystem reads (KindFile/KindStat/KindDir) — *advisory* entries:
//     reads that influence only how fast the compile runs, never its
//     output, and therefore must not trigger recompiles. Nothing records
//     them any more: a unit's dormancy-state load is an input to the
//     optimizer, not to the output, and stays out of the footprint. The
//     kinds stay decodable, since older state files may carry them.
//
// Ground-truth hashing (HashBytes/HashStrings) is deliberately a different
// algorithm (FNV-1a) from the fingerprint hasher the declared channel uses,
// and the declared channel is overridable in tests (a lying invalidator):
// a bug or lie on the declared side cannot also corrupt the check. A unit
// whose declared hash says "unchanged" while an invalidating footprint
// entry moved is a missed invalidation; the reverse is a redundant
// recompile. See docs/ROBUSTNESS.md for the taxonomy.
package footprint

import (
	"fmt"
	"sort"
)

// Kind classifies a footprint entry.
type Kind uint8

// Entry kinds. The zero value is invalid so a zeroed entry can never pass
// decoding.
const (
	// KindSource is the unit's own source bytes (hash: HashBytes of the
	// compiled source). Invalidating.
	KindSource Kind = 1
	// KindPipeline is the pass-pipeline configuration (hash: HashStrings of
	// the pass list). Invalidating.
	KindPipeline Kind = 2
	// KindFile is a file read through the recording FS during the compile
	// (hash: HashBytes of the bytes actually read). Advisory.
	KindFile Kind = 3
	// KindStat is a Stat observed through the recording FS (hash: size and
	// mtime). Advisory.
	KindStat Kind = 4
	// KindDir is a ReadDir observed through the recording FS (hash: the
	// sorted entry names). Advisory.
	KindDir Kind = 5
	// KindCall is an external function the unit calls; the hash is the call
	// arity, which the linker re-checks against the callee. Link-scope.
	KindCall Kind = 6
	// KindGlobal is an external global the unit addresses. Link-scope.
	KindGlobal Kind = 7

	maxKind = KindGlobal
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSource:
		return "source"
	case KindPipeline:
		return "pipeline"
	case KindFile:
		return "file"
	case KindStat:
		return "stat"
	case KindDir:
		return "dir"
	case KindCall:
		return "call"
	case KindGlobal:
		return "global"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Advisory reports whether entries of this kind reflect reads that affect
// only compile speed (dormancy-state files and similar), never output.
func (k Kind) Advisory() bool {
	return k == KindFile || k == KindStat || k == KindDir
}

// Entry is one recorded dependency.
type Entry struct {
	Kind Kind
	// Name identifies the dependency: the unit name for KindSource, a path
	// for the filesystem kinds, a symbol for KindCall/KindGlobal.
	Name string
	// Hash is the ground-truth content hash observed at read time.
	Hash uint64
}

// String renders "kind name@hash" for diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("%s %s@%016x", e.Kind, e.Name, e.Hash)
}

// Record is one unit's footprint from one compile, in canonical form:
// entries sorted by (Kind, Name) with no duplicates.
type Record struct {
	// DeclaredHash is the content hash the *declared* invalidation channel
	// reported for the compiled source — recorded verbatim (lies included)
	// so an offline check can detect the paradox "declared says unchanged,
	// ground truth says changed".
	DeclaredHash uint64
	// Entries is the canonical dependency list.
	Entries []Entry
}

// Canon sorts entries by (Kind, Name) and drops duplicate keys (first
// occurrence wins), establishing the canonical form Encode requires.
func (r *Record) Canon() {
	sort.SliceStable(r.Entries, func(i, j int) bool {
		a, b := r.Entries[i], r.Entries[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	})
	out := r.Entries[:0]
	for _, e := range r.Entries {
		if n := len(out); n > 0 && out[n-1].Kind == e.Kind && out[n-1].Name == e.Name {
			continue
		}
		out = append(out, e)
	}
	r.Entries = out
}

// Get looks up the hash recorded for (kind, name).
func (r *Record) Get(kind Kind, name string) (uint64, bool) {
	for _, e := range r.Entries {
		if e.Kind == kind && e.Name == name {
			return e.Hash, true
		}
	}
	return 0, false
}

// Source returns the unit's recorded source entry.
func (r *Record) Source() (Entry, bool) {
	for _, e := range r.Entries {
		if e.Kind == KindSource {
			return e, true
		}
	}
	return Entry{}, false
}

// Filter returns the entries whose kind satisfies pred, in canonical order.
func (r *Record) Filter(pred func(Kind) bool) []Entry {
	var out []Entry
	for _, e := range r.Entries {
		if pred(e.Kind) {
			out = append(out, e)
		}
	}
	return out
}

// Changed derives the true invalidation verdict: the invalidating entries
// whose ground-truth hashes no longer match the given current source bytes
// and pipeline hash. An empty result means the recorded compile's inputs
// are byte-identical to the current ones, so its object is still valid.
func (r *Record) Changed(src []byte, pipelineHash uint64) []Entry {
	var out []Entry
	for _, e := range r.Entries {
		switch e.Kind {
		case KindSource:
			if HashBytes(src) != e.Hash {
				out = append(out, e)
			}
		case KindPipeline:
			if pipelineHash != e.Hash {
				out = append(out, e)
			}
		}
	}
	return out
}

// Equal reports whether two records are identical (canonical forms
// compared field by field; nil equals nil).
func (r *Record) Equal(o *Record) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.DeclaredHash != o.DeclaredHash || len(r.Entries) != len(o.Entries) {
		return false
	}
	for i := range r.Entries {
		if r.Entries[i] != o.Entries[i] {
			return false
		}
	}
	return true
}

// Diff describes the entry-level delta from old to new: "+ e" added,
// "- e" removed, "~ e(old→new)" hash changed. Both records must be
// canonical. Used by `minibuild deps` to show footprint drift between
// builds.
func Diff(old, new *Record) []string {
	var out []string
	i, j := 0, 0
	oe, ne := old.Entries, new.Entries
	for i < len(oe) || j < len(ne) {
		switch {
		case i >= len(oe):
			out = append(out, "+ "+ne[j].String())
			j++
		case j >= len(ne):
			out = append(out, "- "+oe[i].String())
			i++
		default:
			a, b := oe[i], ne[j]
			switch {
			case a.Kind == b.Kind && a.Name == b.Name:
				if a.Hash != b.Hash {
					out = append(out, fmt.Sprintf("~ %s %s@%016x→%016x", a.Kind, a.Name, a.Hash, b.Hash))
				}
				i++
				j++
			case a.Kind < b.Kind || (a.Kind == b.Kind && a.Name < b.Name):
				out = append(out, "- "+a.String())
				i++
			default:
				out = append(out, "+ "+b.String())
				j++
			}
		}
	}
	return out
}

// --- ground-truth hashing ----------------------------------------------------

// FNV-1a 64-bit parameters. Deliberately not the fingerprint package's
// hasher: the check channel must not share failure modes with the declared
// channel it is checking.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashBytes is the ground-truth content hash of a byte string, with the
// length folded in so prefixes never collide with their extensions.
func HashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	h ^= uint64(len(b))
	h *= fnvPrime
	return h
}

// HashString is HashBytes over a string without copying.
func HashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= uint64(len(s))
	h *= fnvPrime
	return h
}

// HashStrings hashes a string list unambiguously (each element's hash is
// folded with its position). Used for the pipeline-configuration entry.
func HashStrings(ss []string) uint64 {
	h := uint64(fnvOffset)
	for i, s := range ss {
		h ^= HashString(s)
		h *= fnvPrime
		h ^= uint64(i)
		h *= fnvPrime
	}
	h ^= uint64(len(ss))
	h *= fnvPrime
	return h
}

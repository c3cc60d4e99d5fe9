package fingerprint_test

// Tests for the hierarchical fingerprint memo: the memoized path must be
// indistinguishable from the memo-free reference (Function) across every
// pass-driven mutation, and the warm path must be allocation-free — the
// two properties the hot-path optimisation rests on.

import (
	"fmt"
	"testing"

	"statefulcc/internal/fingerprint"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// TestMemoMatchesReferenceThroughPipeline runs every standard pass over a
// module, fingerprinting every function through one long-lived memo after
// each pass, and cross-checks against the memo-free reference. Any pass
// that mutates IR without advancing the generation counters diverges here.
func TestMemoMatchesReferenceThroughPipeline(t *testing.T) {
	m := buildProbe(t)
	memo := fingerprint.NewMemo()
	check := func(stage string) {
		t.Helper()
		for _, f := range m.Funcs {
			got := fingerprint.FunctionWith(f, memo)
			want := fingerprint.Function(f)
			if got != want {
				t.Fatalf("%s: memoized fingerprint of %s diverged: %#x != %#x",
					stage, f.Name, got, want)
			}
		}
	}
	check("initial")
	for _, name := range passes.StandardPipeline {
		info, ok := passes.Lookup(name)
		if !ok || !info.FunctionLocal && info.Module {
			continue // module passes splice freely; the driver deep-clears for them
		}
		fp, ok := info.New().(passes.FuncPass)
		if !ok {
			continue
		}
		for _, f := range m.Funcs {
			fp.Run(f)
		}
		check(name)
	}
}

// TestMemoMatchesReferenceOverHistory repeats the differential check over
// generated edit histories — varied shapes the handwritten probe cannot
// cover.
func TestMemoMatchesReferenceOverHistory(t *testing.T) {
	p := workload.StandardSuite()[0]
	base := workload.Generate(p)
	hist := workload.GenerateHistory(base, p.Seed, 6, workload.DefaultCommitOptions())
	memo := fingerprint.NewMemo()
	for ci, snap := range append([]project.Snapshot{base}, hist.Commits...) {
		for unit, src := range snap {
			m, err := testutil.BuildModule(unit, string(src))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
				t.Fatal(err)
			}
			// Fresh functions re-enter the same memo: the second pass over
			// each function is fully memoized and must still agree.
			for round := 0; round < 2; round++ {
				for _, f := range m.Funcs {
					if got, want := fingerprint.FunctionWith(f, memo), fingerprint.Function(f); got != want {
						t.Fatalf("commit %d unit %s round %d: %s diverged: %#x != %#x",
							ci, unit, round, f.Name, got, want)
					}
				}
			}
			memo.Reset() // the driver's cross-Run discipline
		}
	}
}

// TestMemoCountersMove pins the observability contract: a warm
// re-fingerprint serves every block from the memo, and an edit rehashes
// only the touched block.
func TestMemoCountersMove(t *testing.T) {
	m := buildProbe(t)
	f := m.FindFunc("work")
	memo := fingerprint.NewMemo()

	fingerprint.FunctionWith(f, memo)
	if memo.BlocksRehashed != int64(len(f.Blocks)) || memo.BlocksMemoized != 0 {
		t.Fatalf("cold fingerprint: rehashed=%d memoized=%d, want %d/0",
			memo.BlocksRehashed, memo.BlocksMemoized, len(f.Blocks))
	}
	fingerprint.FunctionWith(f, memo)
	if memo.BlocksMemoized != int64(len(f.Blocks)) {
		t.Fatalf("warm fingerprint memoized %d blocks, want %d", memo.BlocksMemoized, len(f.Blocks))
	}

	// Content-touch one block: exactly that block rehashes.
	r0, m0 := memo.BlocksRehashed, memo.BlocksMemoized
	f.Blocks[0].Touch()
	fingerprint.FunctionWith(f, memo)
	if got := memo.BlocksRehashed - r0; got != 1 {
		t.Fatalf("after touching one block, %d blocks rehashed, want 1", got)
	}
	if got := memo.BlocksMemoized - m0; got != int64(len(f.Blocks)-1) {
		t.Fatalf("after touching one block, %d blocks memoized, want %d", got, len(f.Blocks)-1)
	}
}

// TestWarmFingerprintAllocsFree is the allocation-regression pin for the
// hot path: re-fingerprinting an unchanged function through a warm memo
// must not allocate (pooled scratch, no per-call garbage).
func TestWarmFingerprintAllocsFree(t *testing.T) {
	m := buildProbe(t)
	memo := fingerprint.NewMemo()
	for _, f := range m.Funcs {
		fingerprint.FunctionWith(f, memo)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range m.Funcs {
			fingerprint.FunctionWith(f, memo)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm memoized fingerprinting allocates %.1f objects/run, want 0", allocs)
	}
}

// TestMemoInvalidate pins Invalidate: dropping one function's entries
// forces its blocks to rehash while other functions stay memoized.
func TestMemoInvalidate(t *testing.T) {
	m := buildProbe(t)
	memo := fingerprint.NewMemo()
	for _, f := range m.Funcs {
		fingerprint.FunctionWith(f, memo)
	}
	target := m.FindFunc("work")
	memo.Invalidate(target)
	r0 := memo.BlocksRehashed
	for _, f := range m.Funcs {
		fingerprint.FunctionWith(f, memo)
	}
	if got := memo.BlocksRehashed - r0; got != int64(len(target.Blocks)) {
		t.Fatalf("after Invalidate(work), %d blocks rehashed, want %d (work's blocks only)",
			got, len(target.Blocks))
	}
}

// TestHasherPoolReset pins the pooled-hasher contract: a hasher from the
// pool behaves like a fresh one regardless of prior use.
func TestHasherPoolReset(t *testing.T) {
	h1 := fingerprint.Get()
	h1.Int(42)
	h1.String("dirty")
	fingerprint.Put(h1)

	h2 := fingerprint.Get()
	defer fingerprint.Put(h2)
	ref := fingerprint.New()
	for i := 0; i < 3; i++ {
		s := fmt.Sprintf("probe-%d", i)
		h2.String(s)
		ref.String(s)
	}
	if h2.Sum() != ref.Sum() {
		t.Fatal("pooled hasher not equivalent to a fresh hasher after Put/Get")
	}
}

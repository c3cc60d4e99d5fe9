package fingerprint_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

const probeSrc = `
var g int = 5;
func helper(x int) int { return x * 3 + g; }
func work(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ {
        if i % 2 == 0 { s += helper(i); } else { s -= i; }
    }
    return s;
}
func main() int { return work(10); }
`

func buildProbe(t *testing.T) *ir.Module {
	t.Helper()
	m, err := testutil.BuildModule("p.mc", probeSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStabilityAcrossRebuilds: the same source lowered twice must produce
// identical fingerprints — the property that makes dormancy records valid
// across builds.
func TestStabilityAcrossRebuilds(t *testing.T) {
	m1, m2 := buildProbe(t), buildProbe(t)
	if fingerprint.Module(m1) != fingerprint.Module(m2) {
		t.Fatal("module fingerprint unstable across identical rebuilds")
	}
	for i := range m1.Funcs {
		if fingerprint.Function(m1.Funcs[i]) != fingerprint.Function(m2.Funcs[i]) {
			t.Errorf("function %s fingerprint unstable", m1.Funcs[i].Name)
		}
	}
}

// TestStabilityThroughPipeline: deterministic optimization must yield the
// same post-pipeline fingerprints on every compile.
func TestStabilityThroughPipeline(t *testing.T) {
	h := func() uint64 {
		m := buildProbe(t)
		if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
			t.Fatal(err)
		}
		return fingerprint.Module(m)
	}
	if h() != h() {
		t.Fatal("post-pipeline fingerprint unstable")
	}
}

// TestSensitivity: every observable mutation must change the fingerprint.
func TestSensitivity(t *testing.T) {
	base := fingerprint.Function(buildProbe(t).FindFunc("work"))

	mutate := func(name string, fn func(f *ir.Func)) {
		m := buildProbe(t)
		f := m.FindFunc("work")
		fn(f)
		if fingerprint.Function(f) == base {
			t.Errorf("mutation %q not detected by fingerprint", name)
		}
	}

	mutate("constant value", func(f *ir.Func) {
		f.ForEachValue(func(v *ir.Value) {
			for _, a := range v.Args {
				if c, ok := a.IsConst(); ok && c == 2 {
					a.Aux = 4
				}
			}
		})
	})
	mutate("opcode", func(f *ir.Func) {
		f.ForEachValue(func(v *ir.Value) {
			if v.Op == ir.OpAdd {
				v.Op = ir.OpSub
			}
		})
	})
	mutate("callee name", func(f *ir.Func) {
		f.ForEachValue(func(v *ir.Value) {
			if v.Op == ir.OpCall {
				v.Sym = "other"
			}
		})
	})
	mutate("swap branch targets", func(f *ir.Func) {
		for _, b := range f.Blocks {
			if b.Term.Op == ir.OpBranch {
				b.Term.Blocks[0], b.Term.Blocks[1] = b.Term.Blocks[1], b.Term.Blocks[0]
				return
			}
		}
	})
	mutate("append instruction", func(f *ir.Func) {
		e := f.Entry()
		e.AddInstr(f.NewValue(ir.OpAdd, ir.TInt, f.ConstInt(1), f.ConstInt(2)))
	})
	mutate("function name", func(f *ir.Func) { f.Name = "renamed" })
}

// TestPhiOperandOrderInsensitive: phi operand order tracks pred-list
// maintenance, not semantics, so permuting (value, block) pairs together
// must not change the hash.
func TestPhiOperandOrderInsensitive(t *testing.T) {
	m := buildProbe(t)
	// mem2reg introduces phis.
	p, err := passes.NewFuncPass("mem2reg")
	if err != nil {
		t.Fatal(err)
	}
	f := m.FindFunc("work")
	p.Run(f)

	var phi *ir.Value
	for _, b := range f.Blocks {
		if len(b.Phis) > 0 && len(b.Phis[0].Args) >= 2 {
			phi = b.Phis[0]
			break
		}
	}
	if phi == nil {
		t.Skip("no multi-operand phi")
	}
	before := fingerprint.Function(f)
	phi.Args[0], phi.Args[1] = phi.Args[1], phi.Args[0]
	phi.Blocks[0], phi.Blocks[1] = phi.Blocks[1], phi.Blocks[0]
	if fingerprint.Function(f) != before {
		t.Error("paired phi permutation changed the fingerprint")
	}
	// Swapping values WITHOUT blocks is a semantic change and must differ.
	phi.Args[0], phi.Args[1] = phi.Args[1], phi.Args[0]
	if fingerprint.Function(f) == before {
		t.Error("semantic phi change not detected")
	}
}

// TestPredOrderInsensitive: reordering a pred list (with no other change)
// must not change the hash.
func TestPredOrderInsensitive(t *testing.T) {
	m := buildProbe(t)
	f := m.FindFunc("work")
	var b *ir.Block
	for _, blk := range f.Blocks {
		if len(blk.Preds) >= 2 && len(blk.Phis) == 0 {
			b = blk
			break
		}
	}
	if b == nil {
		t.Skip("no phi-free multi-pred block")
	}
	before := fingerprint.Function(f)
	b.Preds[0], b.Preds[1] = b.Preds[1], b.Preds[0]
	if fingerprint.Function(f) != before {
		t.Error("pred-list order leaked into the fingerprint")
	}
}

// TestModuleOrderInsensitive: function declaration order must not matter to
// the module hash (module passes see a set, not a list).
func TestModuleOrderInsensitive(t *testing.T) {
	m := buildProbe(t)
	before := fingerprint.Module(m)
	m.Funcs[0], m.Funcs[1] = m.Funcs[1], m.Funcs[0]
	if fingerprint.Module(m) != before {
		t.Error("function order leaked into module fingerprint")
	}
}

// TestHasherProperties uses testing/quick for hash-combinator laws.
func TestHasherProperties(t *testing.T) {
	// Different inputs rarely collide (smoke, not crypto).
	inj := func(a, b uint64) bool {
		if a == b {
			return true
		}
		h1 := fingerprint.New()
		h1.Uint64(a)
		h2 := fingerprint.New()
		h2.Uint64(b)
		return h1.Sum() != h2.Sum()
	}
	if err := quick.Check(inj, nil); err != nil {
		t.Error(err)
	}
	// Order matters for sequential folding.
	orderMatters := func(a, b uint64) bool {
		if a == b {
			return true
		}
		h1 := fingerprint.New()
		h1.Uint64(a)
		h1.Uint64(b)
		h2 := fingerprint.New()
		h2.Uint64(b)
		h2.Uint64(a)
		return h1.Sum() != h2.Sum()
	}
	if err := quick.Check(orderMatters, nil); err != nil {
		t.Error(err)
	}
	// String hashing distinguishes length boundaries ("ab","c" vs "a","bc").
	concat := func(a, b string) bool {
		h1 := fingerprint.New()
		h1.String(a)
		h1.String(b)
		h2 := fingerprint.New()
		h2.String(a + b)
		if len(b) == 0 {
			return true
		}
		return h1.Sum() != h2.Sum()
	}
	if err := quick.Check(concat, nil); err != nil {
		t.Error(err)
	}
}

// TestBytesFoldsAsString: Bytes(b) and String(string(b)) are one digest —
// every length around the eight-byte word and its tail (0 to 17), random
// bytes beyond that, and mid-stream as well as on a fresh hasher. The build
// system names state files and keys its object cache by this digest, so the
// digests of a few fixed names, recorded before Bytes existed, are held too.
func TestBytesFoldsAsString(t *testing.T) {
	same := func(prefix uint64, b []byte) bool {
		h1, h2 := fingerprint.New(), fingerprint.New()
		h1.Uint64(prefix)
		h2.Uint64(prefix)
		h1.Bytes(b)
		h2.String(string(b))
		h1.Bytes(b[:len(b)/2])
		h2.String(string(b[:len(b)/2]))
		return h1.Sum() == h2.Sum()
	}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n <= 17; n++ {
		for trial := 0; trial < 64; trial++ {
			b := make([]byte, n)
			rng.Read(b)
			if !same(rng.Uint64(), b) {
				t.Fatalf("Bytes and String differ on %x", b)
			}
		}
	}
	if err := quick.Check(same, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
	for name, want := range map[string]uint64{
		"":                  0x9b83da7d9a524ca6,
		"a":                 0x7a406c08acdf2c48,
		"main.mc":           0x0dbf0b294c4fc94d,
		"pkg/unit-0042.mc":  0xeb01107c93760435,
		"0123456789abcdefX": 0xbb7713b50f9fab68,
	} {
		h := fingerprint.New()
		h.Bytes([]byte(name))
		if got := h.Sum(); got != want {
			t.Errorf("digest of %q = %#016x, recorded %#016x", name, got, want)
		}
	}
}

// TestGeneratedCorpusUniqueness: across a generated project, distinct
// functions must (with overwhelming probability) have distinct hashes.
func TestGeneratedCorpusUniqueness(t *testing.T) {
	snap := workload.Generate(workload.StandardSuite()[1])
	seen := map[uint64]string{}
	for _, unit := range snap.Units() {
		m, err := testutil.BuildModule(unit, string(snap[unit]))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Funcs {
			h := fingerprint.Function(f)
			if prev, dup := seen[h]; dup {
				t.Errorf("collision: %s and %s/%s share %016x", prev, unit, f.Name, h)
			}
			seen[h] = unit + "/" + f.Name
		}
	}
	if len(seen) < 20 {
		t.Fatalf("corpus too small: %d functions", len(seen))
	}
}

// TestStringsHash covers the pipeline-config hash helper.
func TestStringsHash(t *testing.T) {
	a := fingerprint.Strings([]string{"a", "b"})
	b := fingerprint.Strings([]string{"ab"})
	c := fingerprint.Strings([]string{"b", "a"})
	if a == b || a == c {
		t.Error("Strings hash conflates distinct lists")
	}
	if fingerprint.Strings(nil) == a {
		t.Error("empty list collides")
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

var raceEnabled bool // set by race_test.go

// TestWarmFingerprintAllocsFree is the allocation-regression pin for the
// hot path: re-fingerprinting an unchanged function takes its tables from
// the pooled scratch and allocates nothing.
func TestWarmFingerprintAllocsFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m := buildProbe(t)
	for _, f := range m.Funcs {
		fingerprint.Function(f)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range m.Funcs {
			fingerprint.Function(f)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm fingerprinting allocates %.1f objects/run, want 0", allocs)
	}
}

// TestFunctionConcurrent: the pooled scratch is the one structure the
// package shares between goroutines. Four goroutines fingerprinting one
// megarepo unit's functions, each through scratch another left sized for a
// different function, must agree with a serial pass (run it under -race).
func TestFunctionConcurrent(t *testing.T) {
	snap := workload.Generate(workload.MegaProfile())
	var funcs []*ir.Func
	for _, unit := range snap.Units()[:4] {
		m, err := testutil.BuildModule(unit, string(snap[unit]))
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, m.Funcs...)
	}
	want := make([]uint64, len(funcs))
	for i, f := range funcs {
		want[i] = fingerprint.Function(f)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for k := range funcs {
					i := (k*(w+1) + round) % len(funcs) // each goroutine its own order
					if got := fingerprint.Function(funcs[i]); got != want[i] {
						errs <- fmt.Sprintf("goroutine %d: %s hashed %#x, serially %#x", w, funcs[i].Name, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

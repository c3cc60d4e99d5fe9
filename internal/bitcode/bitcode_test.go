package bitcode_test

import (
	"bytes"
	"testing"

	"statefulcc/internal/analysis"
	"statefulcc/internal/bitcode"
	"statefulcc/internal/codegen"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vm"
)

const bigSrc = `
var _table [8]int;
var counter int = 5;
extern func external(x int) int;

func _mix(a int, b int) int {
    var t int = a ^ b * 3;
    if t < 0 { t = -t; }
    return t % 97;
}

func work(n int) int {
    var acc int = 0;
    for var i int = 0; i < n; i++ {
        _table[i % 8] = _mix(i, n);
        acc += _table[i % 8];
        if acc > 1000 { break; }
    }
    while acc % 2 == 0 && acc > 0 {
        acc /= 2;
    }
    return acc;
}

func main() int {
    counter += work(20);
    print("counter", counter);
    assert(counter != 0, "zero counter");
    return counter % 31;
}
`

func buildOptimized(t *testing.T) *ir.Module {
	t.Helper()
	m, err := testutil.BuildModule("big.mc", bigSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModuleRoundTrip(t *testing.T) {
	m := buildOptimized(t)
	var buf bytes.Buffer
	if err := bitcode.EncodeModule(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := bitcode.DecodeModule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("decoded module invalid: %v\n%s", err, got)
	}
	for _, f := range got.Funcs {
		if err := analysis.VerifySSA(f); err != nil {
			t.Fatalf("decoded SSA invalid: %v", err)
		}
	}
	// The decoded module must be structurally identical. Value IDs are
	// densely renumbered on decode, so compare via the fingerprint, which
	// normalizes IDs by traversal order.
	if fingerprint.Module(got) != fingerprint.Module(m) {
		t.Errorf("fingerprint changed across roundtrip")
	}
}

func TestFuncRoundTrip(t *testing.T) {
	m := buildOptimized(t)
	for _, f := range m.Funcs {
		var buf bytes.Buffer
		if err := bitcode.EncodeFunc(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := bitcode.DecodeFunc(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint.Function(got) != fingerprint.Function(f) {
			t.Errorf("func %s: fingerprint changed", f.Name)
		}
	}
}

func TestDecodedModuleExecutes(t *testing.T) {
	m := buildOptimized(t)
	runModule := func(mod *ir.Module) (string, int64) {
		obj, err := codegen.Compile(mod)
		if err != nil {
			t.Fatal(err)
		}
		// Satisfy the extern with a stub unit.
		stub, err := testutil.BuildModule("stub.mc", `func external(x int) int { return x + 1; }`)
		if err != nil {
			t.Fatal(err)
		}
		sobj, err := codegen.Compile(stub)
		if err != nil {
			t.Fatal(err)
		}
		p, err := codegen.Link([]*codegen.Object{obj, sobj})
		if err != nil {
			t.Fatal(err)
		}
		out, res, err := vm.RunCapture(p, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return out, res.ExitValue
	}
	var buf bytes.Buffer
	if err := bitcode.EncodeModule(&buf, m); err != nil {
		t.Fatal(err)
	}
	dec, err := bitcode.DecodeModule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	o1, e1 := runModule(m)
	o2, e2 := runModule(dec)
	if o1 != o2 || e1 != e2 {
		t.Errorf("decoded module behaves differently: %q/%d vs %q/%d", o1, e1, o2, e2)
	}
}

func TestSizeReporting(t *testing.T) {
	m := buildOptimized(t)
	var buf bytes.Buffer
	if err := bitcode.EncodeModule(&buf, m); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range m.Funcs {
		n := bitcode.SizeOfFunc(f)
		if n <= 8 {
			t.Errorf("func %s implausibly small: %d", f.Name, n)
		}
		total += n
	}
	if total >= buf.Len()+64 && len(m.Funcs) > 0 {
		t.Logf("per-func total %d vs module %d (headers repeated)", total, buf.Len())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := bitcode.DecodeModule(bytes.NewReader([]byte("garbage everywhere"))); err == nil {
		t.Error("garbage module accepted")
	}
	if _, err := bitcode.DecodeFunc(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage func accepted")
	}
	// Truncation mid-stream.
	m := buildOptimized(t)
	var buf bytes.Buffer
	if err := bitcode.EncodeModule(&buf, m); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, buf.Len() / 2, buf.Len() - 1} {
		if _, err := bitcode.DecodeModule(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	m := buildOptimized(t)
	var a, b bytes.Buffer
	if err := bitcode.EncodeModule(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := bitcode.EncodeModule(&b, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("module encoding nondeterministic")
	}
}

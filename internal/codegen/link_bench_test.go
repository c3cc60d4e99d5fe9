package codegen_test

import (
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// megaObjects compiles the megarepo: 208 objects, 794 functions, 58 796
// instructions.
func megaObjects(b *testing.B) (objs []*codegen.Object) {
	snap := workload.Generate(workload.MegaProfile())
	for _, unit := range snap.Units() {
		m, err := testutil.BuildModule(unit, string(snap[unit]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := passes.RunPipeline(m, passes.StandardPipeline); err != nil {
			b.Fatal(err)
		}
		obj, err := codegen.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		objs = append(objs, obj)
	}
	return objs
}

// BenchmarkLinkMega is the link every build pays: every site of the
// megarepo's objects checked, the 31 functions main reaches emitted.
func BenchmarkLinkMega(b *testing.B) {
	objs := megaObjects(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Link(objs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateMega is what a build that compiles (or fetches) every unit
// of the megarepo pays, over all of them, for the check of each object and
// the digests recorded with it; a build that compiles two units pays a
// hundredth.
func BenchmarkValidateMega(b *testing.B) {
	objs := megaObjects(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range objs {
			if err := o.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

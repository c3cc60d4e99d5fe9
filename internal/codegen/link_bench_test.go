package codegen_test

import (
	"slices"
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

// BenchmarkLinkMegaTwoChanged is the link of a resident builder's 2-unit
// build: one warm Linker relinks the megarepo with two objects replaced every
// time (by copies validated again, which a Linker takes for new objects), so
// each link checks those two and emits what main reaches.
func BenchmarkLinkMegaTwoChanged(b *testing.B) {
	objs := megaObjects(b)
	edited := slices.Clone(objs)
	for _, i := range []int{1, len(objs) - 2} {
		o := *objs[i]
		if err := o.Validate(); err != nil {
			b.Fatal(err)
		}
		edited[i] = &o
	}
	var l codegen.Linker
	if _, err := l.Link(objs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	checked := 0
	for i := 0; i < b.N; i++ {
		in := edited
		if i%2 == 1 {
			in = objs
		}
		if _, err := l.Link(in); err != nil {
			b.Fatal(err)
		}
		checked += l.Checked()
	}
	b.ReportMetric(float64(checked)/float64(b.N), "checked/op")
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

package codegen_test

import (
	"testing"

	"statefulcc/internal/codegen"
	"statefulcc/internal/passes"
	"statefulcc/internal/testutil"
	"statefulcc/internal/workload"
)

// BenchmarkLinkMega is the link every build pays: the megarepo's 208 objects,
// 1 400 functions and 58 762 instructions into one program.
func BenchmarkLinkMega(b *testing.B) {
	snap := workload.Generate(workload.MegaProfile())
	var objs []*codegen.Object
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Link(objs); err != nil {
			b.Fatal(err)
		}
	}
}

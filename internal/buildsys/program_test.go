package buildsys_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// disassemblyGolden is the SHA-256 of codegen.DisassembleProgram for a
// stateless build of each generated project, recorded at the commit before
// the instruction became 24 bytes: a change of the instruction's layout, of
// the object blob or of the linker must leave every one of them alone.
var disassemblyGolden = map[string]string{
	"tinyutil":   "b47aa75798e7f12319eeeaf10116d384cefc555b3abc2a97fbfffcd52928d4ec",
	"parserlib":  "5d1b7ed3cc642862e43772e265c8aee7c26cb0a033667eec2b906d8879020cbf",
	"mathkit":    "ecff87652a81e956fdc9928f024915a7f8902e42ca57fca9d41574591f9a6909",
	"netstack":   "05fb37b8f5cdd705ef084871d072c2a33b344c7e9b916fead3825e28db64aa1f",
	"renderer":   "44b054f6d82ccc2419e7a83fb569afc3b495d27abe074a4f478ce8bb43fc7ad4",
	"database":   "c86944b137e0ead2a56f1bb4b1d711f22c3524f61da7c3aabaa5f73c0e3429cc",
	"compilerfe": "2eed3f08818ce87228abcf928764618939b4e08da15befd2a17cb4671b9960ad",
	"monorepo":   "5597036c408708640e18d233b832fa1df5897f60937a6f755948dc3a719b683f",
	"megarepo":   "5f571cc1f8c354273ebafaeb3157f4fc1ca9320404930358736442f2452de3a0",
}

func statelessProgram(t *testing.T, snap project.Snapshot) *codegen.Program {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(snap)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Program
}

func TestDisassemblyGolden(t *testing.T) {
	for _, p := range append(workload.StandardSuite(), workload.MegaProfile()) {
		sum := sha256.Sum256([]byte(codegen.DisassembleProgram(statelessProgram(t, workload.Generate(p)))))
		if got := hex.EncodeToString(sum[:]); got != disassemblyGolden[p.Name] {
			t.Errorf("%s: disassembly digest %s, want %s", p.Name, got, disassemblyGolden[p.Name])
		}
	}
}

// TestRetainedProgramBytes: a caller that keeps the linked program of every
// build — the benchmark of record keeps one per round, `serve` the newest —
// pays for instructions, not for the builders that made them. Ten megarepo
// programs kept from ten dead Builders cost at most 1.8 MB of live heap each
// (3.99 MB when an instruction was 64 bytes with a slice header in it).
func TestRetainedProgramBytes(t *testing.T) {
	const programs, budget = 10, 1.8e6
	snap := workload.Generate(workload.MegaProfile())
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	kept := make([]*codegen.Program, 0, programs)
	before := liveHeap()
	for len(kept) < programs {
		kept = append(kept, statelessProgram(t, snap))
	}
	per := float64(liveHeap()-before) / programs
	t.Logf("%.2f MB of live heap per retained megarepo program", per/1e6)
	if per > budget {
		t.Errorf("a retained program costs %.2f MB, budget %.2f MB", per/1e6, budget/1e6)
	}
	runtime.KeepAlive(kept)
}

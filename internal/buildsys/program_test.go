package buildsys_test

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// fullLinkGolden is the SHA-256 of codegen.DisassembleProgram for a stateless
// build of each generated project while the linker emitted every function,
// recorded at the commit before the instruction became 24 bytes. No linker
// produces these programs any more; linkEverything, the reference the linker
// is held to below, still does.
var fullLinkGolden = map[string]string{
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

// disassemblyGolden is the same for the programs the linker produces now: what
// main reaches in full, a name and a digest for every other function.
// Recorded in the commit that made the linker leave those out, which is also
// the commit of TestLinkedProgramIsTheReachedPartOfTheFullLink: that test is
// why these may differ from fullLinkGolden, and nothing else may move them —
// not the instruction's layout, the object blob, code generation or a pass.
var disassemblyGolden = map[string]string{
	"tinyutil":   "cec955a4ef9f919e76aa7d03a9a29a3c5280bd88e24b4631eb653447cb1a0f0a",
	"parserlib":  "35218339acac319c4d510d56ec1238efc81158090145d874e24d5e731ea09afa",
	"mathkit":    "073f90efc823d0ef18998206b7268c0308f8d8715c16a2d923f9299b09df1f26",
	"netstack":   "ee7c8b66c8c5d141a971c398a33725030ca1aedcabcf2831ac3db2d5c0ccf5f0",
	"renderer":   "ab3f5f0018e9f78b1d07b813670bf806622f1e8c647454c674212a79e0ecc868",
	"database":   "07e2210b79a8f2edd84756bbbf1517e9506443d1749ab4a8c631cb5e8f2cf439",
	"compilerfe": "581c5312ef0979367459db418a091dc74d02c2b8c55e8c33a2db33b310bddeb7",
	"monorepo":   "5e329da123203372424a031ff7c0be2c1e11b0f0b4977712782e15068eb39590",
	"megarepo":   "3a5e4f29cc4de774b5db88265684e7e3786e6dc75b14a1a97fe3c12de21d3fb4",
}

func TestDisassemblyGolden(t *testing.T) {
	for _, p := range append(workload.StandardSuite(), workload.MegaProfile()) {
		sum := sha256.Sum256([]byte(oracletest.Reference(t, nil, workload.Generate(p))[0].Dis))
		if got := hex.EncodeToString(sum[:]); got != disassemblyGolden[p.Name] {
			t.Errorf("%s: disassembly digest %s, want %s", p.Name, got, disassemblyGolden[p.Name])
		}
	}
}

// statelessObjects compiles every unit of snap the way a stateless build
// does.
func statelessObjects(t *testing.T, snap project.Snapshot) []*codegen.Object {
	t.Helper()
	c, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	var objs []*codegen.Object
	for _, unit := range snap.Units() {
		res, err := c.CompileUnit(unit, snap[unit], nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, res.Object)
	}
	return objs
}

// linkEverything is the linker as it was while it emitted every function of
// every object — the reference the linker that emits what main reaches is
// held to. It finds a site's symbol in a map instead of walking the
// relocations beside the code, and checks nothing: its inputs linked.
func linkEverything(objects []*codegen.Object) *codegen.Program {
	objs := append([]*codegen.Object(nil), objects...)
	sort.SliceStable(objs, func(i, j int) bool { return objs[i].Unit < objs[j].Unit })
	p := &codegen.Program{FuncIndex: map[string]int{}, GlobalIndex: map[string]int{}}
	for _, o := range objs {
		for _, g := range o.Globals {
			p.GlobalIndex[g.Name] = p.GlobalWords
			for w := int64(0); w < g.Words; w++ {
				v := int64(0)
				if w == 0 && g.Words == 1 {
					v = g.Init
				}
				p.GlobalInit = append(p.GlobalInit, v)
			}
			p.GlobalWords += int(g.Words)
		}
		for _, f := range o.Funcs {
			p.FuncIndex[f.Name] = len(p.Funcs)
			p.Funcs = append(p.Funcs, nil)
		}
	}
	intern := func(s string) int64 {
		for i, have := range p.Strings {
			if have == s {
				return int64(i)
			}
		}
		p.Strings = append(p.Strings, s)
		return int64(len(p.Strings) - 1)
	}
	for _, o := range objs {
		type site struct{ fn, pc int }
		symbol := map[site]string{}
		for _, r := range append(append([]codegen.Reloc(nil), o.Relocs...), o.GlobalRelocs...) {
			symbol[site{r.Func, r.Pc}] = r.Symbol
		}
		for _, s := range o.Strings {
			intern(s)
		}
		for fi, f := range o.Funcs {
			nf := *f
			nf.Code = append([]codegen.Instr(nil), f.Code...)
			for pc := range nf.Code {
				switch in := &nf.Code[pc]; in.Op {
				case codegen.IPrint, codegen.IAssert:
					if in.Imm >= 0 {
						in.Imm = intern(o.Strings[in.Imm])
					}
				case codegen.ICall:
					in.Imm = int64(p.FuncIndex[symbol[site{fi, pc}]])
				case codegen.IGAddr:
					in.Imm = int64(p.GlobalIndex[symbol[site{fi, pc}]])
				}
			}
			p.Funcs[p.FuncIndex[f.Name]] = &nf
		}
	}
	p.EntryIndex = p.FuncIndex["main"]
	return p
}

// linkedDigest is Object.Validate's digest of a function, taken from the
// function as linkEverything linked it: the symbol of a call or of a global
// address and the string of a print or an assertion found through the index
// the link gave the site.
func linkedDigest(p *codegen.Program, globalAt map[int64]string, f *codegen.FuncCode) uint64 {
	h := fingerprint.New()
	h.String(f.Name)
	h.Uint64(uint64(uint32(f.NumParams)) | uint64(uint32(f.NumSlots))<<32)
	word := uint64(uint32(f.AllocaWords))
	if f.HasResult {
		word |= 1 << 32
	}
	h.Uint64(word)
	h.Uint64(uint64(len(f.Code)))
	for _, in := range f.Code {
		h.Uint64(uint64(in.Op) | uint64(in.Sub)<<8 | uint64(uint32(in.A))<<32)
		h.Uint64(uint64(uint32(in.B)) | uint64(uint32(in.C))<<32)
		switch in.Op {
		case codegen.ICall:
			h.String(p.Funcs[in.Imm].Name)
		case codegen.IGAddr:
			h.String(globalAt[in.Imm])
		case codegen.IPrint, codegen.IAssert:
			if in.Imm < 0 {
				h.Uint64(0)
			} else {
				h.Uint64(1)
				h.String(p.Strings[in.Imm])
			}
		default:
			h.Int(in.Imm)
		}
	}
	for _, slot := range f.Args {
		h.Uint64(uint64(uint32(slot)))
	}
	return h.Sum()
}

var callSite = regexp.MustCompile(`call #(\d+)\(`)

// symbolic renders a linked function with its callees by name, so the same
// function reads the same in two programs that number functions differently.
func symbolic(p *codegen.Program, f *codegen.FuncCode) string {
	return callSite.ReplaceAllStringFunc(f.Disassemble(p.Strings), func(m string) string {
		idx, _ := strconv.Atoi(callSite.FindStringSubmatch(m)[1])
		return "call @" + p.Funcs[idx].Name + "("
	})
}

// TestLinkedProgramIsTheReachedPartOfTheFullLink is what lets
// TestDisassemblyGolden's digests move in the commit that stops the linker
// emitting code main cannot reach: for every generated project, the new
// program is, function by function, the part of the old full link that main
// reaches (the same bodies, callees by name since the numbering is denser),
// over the same global segment; every function left out is listed, in layout
// order, with the digest of its old linked body; and the Builder's program is
// that program.
func TestLinkedProgramIsTheReachedPartOfTheFullLink(t *testing.T) {
	for _, prof := range append(workload.StandardSuite(), workload.MegaProfile()) {
		snap := workload.Generate(prof)
		objs := statelessObjects(t, snap)
		full := linkEverything(objs)
		if sum := sha256.Sum256([]byte(codegen.DisassembleProgram(full))); hex.EncodeToString(sum[:]) != fullLinkGolden[prof.Name] {
			t.Fatalf("%s: the reference linker does not produce the program the linker produced until PR 24", prof.Name)
		}
		got, err := codegen.Link(objs)
		if err != nil {
			t.Fatal(err)
		}
		if d := oracletest.Reference(t, nil, snap)[0].Diff(got); d != "" {
			t.Errorf("%s: the Builder's program is not the link of the stateless compiler's objects: %s", prof.Name, d)
		}

		reached := map[int]bool{full.EntryIndex: true}
		for work := []int{full.EntryIndex}; len(work) > 0; {
			f := full.Funcs[work[len(work)-1]]
			work = work[:len(work)-1]
			for _, in := range f.Code {
				if in.Op == codegen.ICall && !reached[int(in.Imm)] {
					reached[int(in.Imm)] = true
					work = append(work, int(in.Imm))
				}
			}
		}
		globalAt := map[int64]string{}
		for name, addr := range full.GlobalIndex {
			globalAt[int64(addr)] = name
		}

		if got.GlobalWords != full.GlobalWords || !reflect.DeepEqual(got.GlobalInit, full.GlobalInit) ||
			!reflect.DeepEqual(got.GlobalIndex, full.GlobalIndex) {
			t.Errorf("%s: the global segment moved", prof.Name)
		}
		if got.Funcs[got.EntryIndex].Name != "main" {
			t.Errorf("%s: entry is %s", prof.Name, got.Funcs[got.EntryIndex].Name)
		}
		nf, nu := 0, 0
		for i, f := range full.Funcs {
			switch {
			case reached[i] && nf < len(got.Funcs):
				g := got.Funcs[nf]
				if g.Name != f.Name || got.FuncIndex[f.Name] != nf || symbolic(got, g) != symbolic(full, f) {
					t.Errorf("%s: function %d of the program is %s, the full link's next reached function is %s; or their bodies differ:\n%s\n%s",
						prof.Name, nf, g.Name, f.Name, symbolic(got, g), symbolic(full, f))
				}
				nf++
			case !reached[i] && nu < len(got.Unreached):
				u := got.Unreached[nu]
				if want := linkedDigest(full, globalAt, f); u.Name != f.Name || u.Digest != want {
					t.Errorf("%s: left out #%d is %s %016x, want %s %016x", prof.Name, nu, u.Name, u.Digest, f.Name, want)
				}
				nu++
			}
		}
		if nf != len(got.Funcs) || nu != len(got.Unreached) || nf+nu != len(full.Funcs) || len(got.FuncIndex) != nf {
			t.Errorf("%s: %d functions linked and %d left out of %d; the full link has %d reached", prof.Name,
				len(got.Funcs), len(got.Unreached), len(full.Funcs), len(reached))
		}
		t.Logf("%s: main reaches %d of %d functions", prof.Name, nf, len(full.Funcs))
	}
}

// TestRetainedProgramBytes: a caller that keeps the linked program of every
// build — the benchmark of record keeps one per round, `serve` the newest —
// pays for the instructions main can reach and a name and a digest for every
// function it cannot, not for the builders that made them. Megarepo programs
// kept from dead Builders cost at most 0.2 MB of live heap each (1.49 MB
// when the linker emitted every function, 3.99 MB when an instruction was
// 64 bytes with a slice header in it).
func TestRetainedProgramBytes(t *testing.T) {
	const programs, budget = 10, 0.2e6
	snap := workload.Generate(workload.MegaProfile())
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	kept := make([]*codegen.Program, 0, programs)
	for len(kept) < programs {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateless})
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, mustBuild(t, b, snap).Program)
	}
	// What the programs hold alive is what dropping them frees.
	with := liveHeap()
	runtime.KeepAlive(kept)
	kept = nil
	per := (with - liveHeap()) / programs
	t.Logf("%.2f MB of live heap per retained megarepo program", per/1e6)
	if per > budget || per <= 0 {
		t.Errorf("a retained program costs %.2f MB, budget %.2f MB", per/1e6, budget/1e6)
	}
}

// TestCallGraphEditAgainstOracle: an edit that gives main a call to a
// function it did not reach, and the edit that takes the call away again,
// move that function (and what it calls) into the program and out of it; a
// resident stateful builder, which links the unedited units' cached objects,
// produces at every step the program and the output a fresh stateless
// builder does.
func TestCallGraphEditAgainstOracle(t *testing.T) {
	lib := []byte(`
var calls int = 0;
func used(x int) int { calls++; return x + 1; }
func inner(x int) int { print("inner", x); return x * 2; }
func spare(x int) int { calls++; return inner(x) + 3; }`)
	mainSrc := func(callSpare bool) []byte {
		body := "return used(1);"
		if callSpare {
			body = "return used(1) + spare(2);"
		}
		return []byte("extern func used(x int) int;\nextern func spare(x int) int;\nfunc main() int { " + body + " }")
	}
	stateful, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	calls := []bool{false, true, false, true}
	var stream []project.Snapshot
	for _, callSpare := range calls {
		stream = append(stream, project.Snapshot{"lib.mc": lib, "main.mc": mainSrc(callSpare)})
	}
	ref := oracletest.Reference(t, nil, stream...)
	runs := oracletest.Runs(t, ref)
	oracletest.Walk(t, stream, ref, oracletest.Candidate{
		Name: "stateful", Build: oracletest.Resident(stateful),
		Check: func(step int, rep *buildsys.Report) {
			callSpare := calls[step]
			if step > 0 && rep.UnitsCompiled != 1 {
				t.Errorf("step %d: %d units compiled, want main.mc alone", step, rep.UnitsCompiled)
			}
			_, linked := rep.Program.FuncIndex["spare"]
			leftOut := slices.ContainsFunc(rep.Program.Unreached, func(u codegen.Unreached) bool { return u.Name == "spare" })
			if linked != callSpare || leftOut == callSpare {
				t.Errorf("step %d: main calls spare: %v; spare linked: %v, left out: %v", step, callSpare, linked, leftOut)
			}
			runs(step, rep)
		},
	})
}

// TestLinkerMatchesLink walks megarepo streams through one warm
// codegen.Linker the way a resident builder does — an unchanged unit keeps
// its object, a changed one gets a new one — and at every commit holds its
// program to codegen.Link of the same objects, and the program of the commit
// before to what it was when it was returned: a later link writes nothing a
// program holds.
func TestLinkerMatchesLink(t *testing.T) {
	c, err := compiler.New(compiler.Options{Mode: compiler.ModeStateless})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []workload.StreamKind{workload.StreamDefault, workload.StreamRenameWave, workload.StreamInterfaceChurn} {
		var l codegen.Linker
		srcs, objs := map[string][]byte{}, map[string]*codegen.Object{}
		var last, lastCopy *codegen.Program
		checked := 0
		for i, snap := range oracletest.Stream(workload.MegaProfile(), kind, 7, 8) {
			var list []*codegen.Object
			for _, unit := range snap.Units() {
				if !slices.Equal(srcs[unit], snap[unit]) {
					res, err := c.CompileUnit(unit, snap[unit], nil)
					if err != nil {
						t.Fatal(err)
					}
					srcs[unit], objs[unit] = snap[unit], res.Object
				}
				list = append(list, objs[unit])
			}
			got, err := l.Link(list)
			want, wantErr := codegen.Link(list)
			if err != nil || wantErr != nil {
				t.Fatalf("%s commit %d: warm Linker: %v; Link: %v", kind, i, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s commit %d: the warm Linker's program is not Link's", kind, i)
			}
			if last != nil && !reflect.DeepEqual(last, lastCopy) {
				t.Fatalf("%s commit %d: linking it changed the program of the commit before", kind, i)
			}
			last, lastCopy = got, cloneProgram(got)
			if i > 0 {
				checked += l.Checked()
			}
		}
		t.Logf("%s: %d objects checked over the commits after the first", kind, checked)
	}
}

// cloneProgram is a copy of p that shares nothing with it.
func cloneProgram(p *codegen.Program) *codegen.Program {
	q := *p
	q.Funcs = make([]*codegen.FuncCode, len(p.Funcs))
	for i, f := range p.Funcs {
		g := *f
		g.Code, g.Args = slices.Clone(f.Code), slices.Clone(f.Args)
		q.Funcs[i] = &g
	}
	q.FuncIndex, q.GlobalIndex = maps.Clone(p.FuncIndex), maps.Clone(p.GlobalIndex)
	q.Unreached, q.GlobalInit, q.Strings = slices.Clone(p.Unreached), slices.Clone(p.GlobalInit), slices.Clone(p.Strings)
	return &q
}

package core_test

// The segment contract: what a segment replay takes for granted about the
// passes of a segment (a run of function-local function slots), checked on
// every function of the eight suite profiles, the megarepo and two units
// with scalar globals, at each segment of StandardPipeline, on the
// segment's real input.
//
//  1. Determinism: two independent lowerings of a unit give every function
//     the same segment output, value and block IDs included.
//  2. Locality: a function's segment output does not move when the rest of
//     the module does — other bodies replaced, global initializers changed,
//     the unit renamed.
//  3. The snapshot codec is the identity: a function encoded and restored
//     prints the same and has the same ID counters, at the segment's input
//     and at its output.

import (
	"testing"

	"statefulcc/internal/compiler"
	"statefulcc/internal/ir"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/workload"
)

// contractExtra adds what the generated projects leave out: scalar globals
// read, written and initialized, which a pass that read the module's
// globals would fold.
const contractExtra = `
var _limit int = 9;
var _scale int = 3;
var total int;
func step(x int) int {
    if x > _limit { total += x; return x * _scale; }
    return x + _limit;
}
func main() int {
    var s int = 0;
    for var i int = 0; i < 12; i++ { s += step(i) + _scale; }
    return s + total;
}
`

func TestSegmentContract(t *testing.T) {
	segs := standardSegments(t)
	projects := []project.Snapshot{{"driver.mc": []byte(unitSrc), "extra.mc": []byte(contractExtra)}}
	for _, p := range append(workload.StandardSuite(), workload.MegaProfile()) {
		projects = append(projects, workload.Generate(p))
	}
	lower := func(unit string, src []byte) *ir.Module {
		m, err := compiler.Frontend(unit, src)
		if err != nil {
			t.Fatal(err)
		}
		passes.PruneDeadFuncs(m)
		return m
	}
	var snap ir.Snapshot
	checked := 0
	for _, proj := range projects {
		for _, unit := range proj.Units() {
			m1, m2 := lower(unit, proj[unit]), lower(unit, proj[unit])
			next := 0
			for _, seg := range segs {
				if seg[0] > next {
					runSlots(t, m1, next, seg[0]-1)
					runSlots(t, m2, next, seg[0]-1)
				}
				next = seg[1] + 1
				inputs := make([][]byte, len(m1.Funcs))
				for i, f := range m1.Funcs {
					inputs[i] = roundTrip(t, &snap, f, "input")
				}
				runSlots(t, m1, seg[0], seg[1])
				runSlots(t, m2, seg[0], seg[1])
				for i, f := range m1.Funcs {
					where := unit + "." + f.Name + " " + passes.StandardPipeline[seg[0]] + "…" + passes.StandardPipeline[seg[1]]
					out := f.String()
					if g := m2.Funcs[i]; g.Name != f.Name || g.String() != out {
						t.Errorf("%s: two lowerings, two outputs (determinism)", where)
					}
					roundTrip(t, &snap, f, "output")
					if got := perturbed(t, &snap, m1, i, inputs[i], seg); got != out {
						t.Errorf("%s: the output moved with the rest of the module (locality)\n%s\nwant\n%s", where, got, out)
					}
					checked++
				}
				if t.Failed() {
					return
				}
			}
		}
	}
	t.Logf("%d (function, segment) pairs checked", checked)
}

// roundTrip encodes f, restores the encoding into a new function and
// checks the two are the same; it returns the encoding.
func roundTrip(t *testing.T, snap *ir.Snapshot, f *ir.Func, what string) []byte {
	t.Helper()
	enc, ok := snap.AppendFunc(nil, f)
	if !ok {
		t.Fatalf("%s %s: no encoding", f.Name, what)
	}
	g := restored(snap, &ir.Module{Unit: "copy"}, f, enc)
	if g.String() != f.String() || g.NumValues() != f.NumValues() || g.NumBlockIDs() != f.NumBlockIDs() {
		t.Errorf("%s %s: restore is not the identity (%d/%d values, %d/%d blocks)\n%s\nwant\n%s",
			f.Name, what, g.NumValues(), f.NumValues(), g.NumBlockIDs(), f.NumBlockIDs(), g, f)
	}
	return enc
}

// restored is a function of m named and typed as f, with the body enc holds.
func restored(snap *ir.Snapshot, m *ir.Module, f *ir.Func, enc []byte) *ir.Func {
	params := make([]ir.Type, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.Type
	}
	g := m.NewFunc(f.Name, params, f.Result)
	snap.RestoreFunc(g, enc)
	return g
}

// perturbed runs segment seg over function i of m, restored from its
// segment input enc into a module where everything else differs: the unit's
// name, every global's initializer and every other function's body (a bare
// return). It returns the function's output.
func perturbed(t *testing.T, snap *ir.Snapshot, m *ir.Module, i int, enc []byte, seg [2]int) string {
	t.Helper()
	pm := &ir.Module{Unit: m.Unit + ".perturbed", Externs: m.Externs}
	for _, g := range m.Globals {
		pg := *g
		pg.Init += 7
		pm.Globals = append(pm.Globals, &pg)
	}
	var target *ir.Func
	for j, f := range m.Funcs {
		if j == i {
			target = restored(snap, pm, f, enc)
			pm.Funcs = append(pm.Funcs, target)
			continue
		}
		params := make([]ir.Type, len(f.Params))
		for k, p := range f.Params {
			params[k] = p.Type
		}
		stub := pm.NewFunc(f.Name, params, f.Result)
		var ret *ir.Value
		switch f.Result {
		case ir.TVoid:
			ret = stub.NewValue(ir.OpRet, ir.TVoid)
		case ir.TBool:
			ret = stub.NewValue(ir.OpRet, ir.TVoid, stub.ConstBool(true))
		default:
			ret = stub.NewValue(ir.OpRet, ir.TVoid, stub.ConstInt(-3))
		}
		stub.NewBlock().SetTerm(ret)
		pm.Funcs = append(pm.Funcs, stub)
	}
	for _, name := range passes.StandardPipeline[seg[0] : seg[1]+1] {
		fp, err := passes.NewFuncPass(name)
		if err != nil {
			t.Fatal(err)
		}
		fp.Run(target)
	}
	return target.String()
}

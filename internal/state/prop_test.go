package state_test

// Property-based round-trip: Decode(Encode(st)) must reproduce st exactly
// for every well-formed state, and FileSize must agree with the encoded
// length. States are generated from a fixed seed over the shapes that have
// bitten binary formats before: empty units, zero-slot functions, runs of
// dormant slots sharing one hash (the distinct-hash table), hash zero,
// and empty function names.

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/state"
)

// randBlock generates one record block. Slots are independently unseen,
// seen-changed, or seen-dormant; dormant slots draw from a small shared
// hash pool (plus fresh hashes) so the distinct-hash table gets both
// sharing and growth.
func randBlock(r *rand.Rand, n int, pool []uint64) ([]core.Record, []bool) {
	slots := make([]core.Record, n)
	seen := make([]bool, n)
	for i := range slots {
		switch r.Intn(5) {
		case 0: // unseen: must stay the zero record
		case 1: // seen, changed: flags only
			seen[i] = true
			slots[i].Changed = true
		default: // seen, dormant: hash
			seen[i] = true
			if r.Intn(3) == 0 {
				slots[i].InputHash = r.Uint64()
			} else {
				slots[i].InputHash = pool[r.Intn(len(pool))]
			}
		}
	}
	return slots, seen
}

// randState generates one well-formed, encoder-normalized unit state.
func randState(r *rand.Rand) *core.UnitState {
	pool := []uint64{0, r.Uint64(), r.Uint64()} // hash 0 is a legal value
	st := &core.UnitState{
		Unit:         string([]byte("unit__.mc")[:r.Intn(9)+1]),
		PipelineHash: r.Uint64(),
		Funcs:        make(map[string]*core.FuncState),
	}
	st.ModuleSlots, st.ModuleSeen = randBlock(r, r.Intn(6), pool)
	switch r.Intn(4) {
	case 0: // whole-unit quarantine (empty pass list)
		st.Quarantine = &core.Quarantine{Reason: core.QuarantinePanic, Clean: r.Intn(3)}
	case 1: // per-pass quarantine (sorted unique names, AddPass invariant)
		q := &core.Quarantine{Reason: core.QuarantineUnsound}
		for i, n := 0, r.Intn(3)+1; i < n; i++ {
			q.AddPass("p" + strconv.Itoa(r.Intn(4)))
		}
		q.Clean = r.Intn(3)
		st.Quarantine = q
	}
	for i, n := 0, r.Intn(5); i < n; i++ {
		name := "fn" + strconv.Itoa(i)
		if i == 0 && r.Intn(4) == 0 {
			name = "" // empty function name is representable
		}
		st.Funcs[name] = &core.FuncState{}
		st.Funcs[name].Slots, st.Funcs[name].Seen = randBlock(r, r.Intn(6), pool)
	}
	if r.Intn(2) == 0 {
		st.Footprint = randFootprint(r)
	}
	return st
}

// randFootprint generates a canonical footprint via a Trace (the only
// production constructor), covering every kind, duplicate observations
// (deduplicated), empty names, and hash zero.
func randFootprint(r *rand.Rand) *footprint.Record {
	tr := footprint.NewTrace("unit.mc")
	kinds := []footprint.Kind{
		footprint.KindSource, footprint.KindPipeline, footprint.KindFile,
		footprint.KindStat, footprint.KindDir, footprint.KindCall,
		footprint.KindGlobal,
	}
	for i, n := 0, r.Intn(8); i < n; i++ {
		name := "dep" + strconv.Itoa(r.Intn(4))
		if r.Intn(6) == 0 {
			name = "" // empty name is representable
		}
		h := r.Uint64()
		if r.Intn(6) == 0 {
			h = 0 // hash zero is a legal value
		}
		tr.Add(kinds[r.Intn(len(kinds))], name, h)
	}
	return tr.Finish(r.Uint64())
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(0x5CC57A7E))
	for i := 0; i < 1000; i++ {
		st := randState(r)
		var buf bytes.Buffer
		if err := state.Encode(&buf, st); err != nil {
			t.Fatalf("case %d: encode: %v\nstate: %+v", i, err, st)
		}
		n, err := state.FileSize(st)
		if err != nil {
			t.Fatalf("case %d: FileSize: %v", i, err)
		}
		if n != buf.Len() {
			t.Fatalf("case %d: FileSize %d != encoded length %d", i, n, buf.Len())
		}
		got, err := state.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("case %d: decode: %v\nstate: %+v", i, err, st)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("case %d: round trip drifted\n got: %+v\nwant: %+v", i, got, st)
		}
	}
}

// TestRoundTripHandPickedEdges pins the named edge shapes individually so
// a failure reads as the shape, not a seed.
func TestRoundTripHandPickedEdges(t *testing.T) {
	cases := map[string]*core.UnitState{
		"empty unit": {
			Unit: "e.mc", Funcs: map[string]*core.FuncState{},
			ModuleSlots: []core.Record{}, ModuleSeen: []bool{},
		},
		"zero-slot func": {
			Unit: "z.mc", ModuleSlots: []core.Record{}, ModuleSeen: []bool{},
			Funcs: map[string]*core.FuncState{
				"f": {Slots: []core.Record{}, Seen: []bool{}},
			},
		},
		"all slots share one hash": {
			Unit: "s.mc", ModuleSlots: []core.Record{}, ModuleSeen: []bool{},
			Funcs: map[string]*core.FuncState{
				"f": {
					Slots: []core.Record{
						{InputHash: 9}, {InputHash: 9}, {InputHash: 9}, {InputHash: 9},
					},
					Seen: []bool{true, true, true, true},
				},
			},
		},
		"hash zero": {
			Unit:        "m.mc",
			ModuleSlots: []core.Record{{InputHash: 0}},
			ModuleSeen:  []bool{true},
			Funcs:       map[string]*core.FuncState{},
		},
	}
	for name, st := range cases {
		var buf bytes.Buffer
		if err := state.Encode(&buf, st); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := state.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("%s: round trip drifted\n got: %+v\nwant: %+v", name, got, st)
		}
	}
}

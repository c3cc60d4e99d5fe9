package state_test

// Native fuzz target for the state decoder — the one parser in the system
// that consumes attacker-grade input (a state directory is plain files;
// anything can be in them). Properties:
//
//  1. Decode never panics and never over-allocates, no matter the bytes:
//     every slice it grows is bounded by the bytes actually present, not
//     by counts declared in the header.
//  2. Anything Decode accepts is canonical: re-encoding the decoded state
//     succeeds, FileSize agrees with the re-encoded length, and decoding
//     the re-encoding reproduces the state exactly.
//
// Random bytes almost never carry a matching CRC-32C, so on its own the
// harness would test the checksum and little else. Every input is
// therefore decoded twice: as it is, and re-sealed — its checksum field
// set to the checksum of its body — which takes it past the header to
// the body parser.
//
// Run with: go test -fuzz FuzzStateDecode ./internal/state

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/state"
)

// fuzzSeedStates are hand-built states spanning the format's shapes:
// empty, module-only, shared dormant hashes, changed and unseen slots,
// zero-slot functions.
func fuzzSeedStates() []*core.UnitState {
	return []*core.UnitState{
		{
			Unit:        "empty.mc",
			Funcs:       map[string]*core.FuncState{},
			ModuleSlots: []core.Record{},
			ModuleSeen:  []bool{},
		},
		{
			Unit:         "mod.mc",
			PipelineHash: 0xDEADBEEF,
			Funcs:        map[string]*core.FuncState{},
			ModuleSlots:  []core.Record{{InputHash: 7}, {Changed: true}},
			ModuleSeen:   []bool{true, true},
		},
		{
			Unit:         "funcs.mc",
			PipelineHash: 1,
			ModuleSlots:  []core.Record{{}},
			ModuleSeen:   []bool{false},
			Funcs: map[string]*core.FuncState{
				"shared": {
					Slots: []core.Record{
						{InputHash: 0xAB},
						{InputHash: 0xAB},
						{InputHash: 0xCD},
					},
					Seen: []bool{true, true, true},
				},
				"zero": {Slots: []core.Record{}, Seen: []bool{}},
			},
		},
		{
			Unit:        "fp.mc",
			Funcs:       map[string]*core.FuncState{},
			ModuleSlots: []core.Record{},
			ModuleSeen:  []bool{},
			Footprint: &footprint.Record{
				DeclaredHash: 0x0123456789ABCDEF,
				Entries: []footprint.Entry{
					{Kind: footprint.KindSource, Name: "fp.mc", Hash: 1},
					{Kind: footprint.KindPipeline, Name: "pipeline", Hash: 2},
					{Kind: footprint.KindFile, Name: "cache/fp.state", Hash: 3},
					{Kind: footprint.KindCall, Name: "callee", Hash: 2},
				},
			},
		},
	}
}

func FuzzStateDecode(f *testing.F) {
	var seeds [][]byte
	for _, st := range fuzzSeedStates() {
		var buf bytes.Buffer
		if err := state.Encode(&buf, st); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	// The frozen files of older layouts: the decoder rejects them at the
	// version field, and one mutation of that field away is a well-formed
	// body of the wrong shape behind an accepted header.
	for _, name := range olderLayoutFiles {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, data := range seeds {
		f.Add(append([]byte(nil), data...))
		// Truncations steer the fuzzer at every mid-structure boundary.
		for _, n := range []int{0, 4, 8, 12, len(data) / 2, len(data) - 1} {
			if n <= len(data) {
				f.Add(append([]byte(nil), data[:n]...))
			}
		}
	}
	// Adversarial headers: valid magic/version, then huge declared counts
	// with no bytes behind them — the over-allocation shape — for the
	// accepted version and for the ones on either side of it.
	for _, v := range []uint32{3, 4, 5, 6, 7, state.FormatVersion, state.FormatVersion + 1} {
		hdr := []byte("SCCS")
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
		hdr = binary.LittleEndian.AppendUint32(hdr, 0)     // checksum, sealed below
		hdr = binary.LittleEndian.AppendUint64(hdr, 42)    // pipeline hash
		hdr = binary.LittleEndian.AppendUint32(hdr, 1<<19) // huge unit-name length
		f.Add(reseal(hdr))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= 12 {
			checkDecode(t, reseal(data))
		}
	})
}

// reseal returns a copy of data with its checksum field (bytes 8..12) set
// to the CRC-32C of everything after it, as the encoder stamps it.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(out[12:], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// checkDecode asserts the fuzz properties for one input.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	st, err := state.Decode(bytes.NewReader(data))
	if err != nil {
		if st != nil {
			t.Fatal("Decode returned both a state and an error")
		}
		return
	}
	if st == nil {
		t.Fatal("Decode returned neither state nor error")
	}

	// DecodeBytes is the same parser without the reader indirection;
	// it must agree byte-for-byte (the zero-copy load path).
	st0, err := state.DecodeBytes(append([]byte(nil), data...))
	if err != nil {
		t.Fatalf("DecodeBytes rejects what Decode accepted: %v", err)
	}
	if !reflect.DeepEqual(st, st0) {
		t.Fatalf("Decode and DecodeBytes disagree:\nreader: %+v\nbytes:  %+v", st, st0)
	}

	// Accepted input must round-trip canonically.
	var buf bytes.Buffer
	if err := state.Encode(&buf, st); err != nil {
		t.Fatalf("re-encoding a decoded state failed: %v", err)
	}
	n, err := state.FileSize(st)
	if err != nil {
		t.Fatalf("FileSize of a decoded state failed: %v", err)
	}
	if n != buf.Len() {
		t.Fatalf("FileSize %d disagrees with encoded length %d", n, buf.Len())
	}
	st2, err := state.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decoding a re-encoded state failed: %v", err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("re-encode/decode drifted:\nfirst:  %+v\nsecond: %+v", st, st2)
	}
}

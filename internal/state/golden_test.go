package state_test

// Golden-file pins of the on-disk layout. The state format is a
// cross-process, cross-version contract: a byte produced by one build is
// consumed by a later process of a possibly different binary. These tests
// freeze the exact bytes so any encoder change — intended or not — shows
// up as a diff against testdata/, and an intended change forces a
// conscious FormatVersion bump plus `go test ./internal/state -update`.
//
// The pins are the current v8 layout, encoder and decoder. The frozen v3
// to v7 files written by earlier encoders stay in testdata/ as
// rejection fixtures: well-formed files of a layout the decoder no longer
// reads (TestLoadRejectsVersionSkew, TestDecodeEveryPrefix).

import (
	"bytes"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/state"
)

var update = flag.Bool("update", false, "rewrite golden files")

// olderLayoutFiles are the frozen files of layouts the decoder no longer
// reads. They are never regenerated.
var olderLayoutFiles = []string{
	"unitstate_v3.golden",
	"unitstate_v4.golden", "unitstate_v4_quarantined.golden",
	"unitstate_v5.golden", "unitstate_v5_quarantined.golden",
	"unitstate_v6.golden", "unitstate_v6_quarantined.golden", "unitstate_v6_footprint.golden",
	"unitstate_v7.golden", "unitstate_v7_quarantined.golden", "unitstate_v7_footprint.golden",
}

// currentLayoutFiles are the pins of the layout the encoder writes.
var currentLayoutFiles = []string{
	"unitstate_v8.golden", "unitstate_v8_quarantined.golden", "unitstate_v8_footprint.golden",
}

// goldenState exercises every shape the format distinguishes: unseen
// slots, seen-changed slots, seen-dormant slots sharing one hash-table
// entry, a zero-slot function, and an empty-but-seen module block. All
// values are normalized the way the encoder stores them (no hash on a
// changed record) so the decoded state compares deeply equal.
func goldenState() *core.UnitState {
	return &core.UnitState{
		Unit:         "golden.mc",
		PipelineHash: 0x1122334455667788,
		ModuleSlots: []core.Record{
			{},                      // unseen
			{InputHash: 0xAABBCCDD}, // seen dormant
			{Changed: true},         // seen changed: no hash
			{InputHash: 0xAABBCCDD}, // shares the hash-table entry
		},
		ModuleSeen: []bool{false, true, true, true},
		Funcs: map[string]*core.FuncState{
			"helper": {
				Slots: []core.Record{
					{InputHash: 0x0102030405060708}, // dormant
					{InputHash: 0},                  // dormant on hash zero, a legal value
				},
				Seen: []bool{true, true},
			},
			"zero_slots": {Slots: []core.Record{}, Seen: []bool{}},
		},
	}
}

// goldenQuarantinedState adds the quarantine block shapes: a per-pass
// quarantine with a nonzero clean count.
func goldenQuarantinedState() *core.UnitState {
	st := goldenState()
	st.Quarantine = &core.Quarantine{
		Reason: core.QuarantineUnsound,
		Clean:  2,
		Passes: []string{"dce", "simplify"},
	}
	return st
}

func checkGolden(t *testing.T, name string, st *core.UnitState,
	encode func(io.Writer, *core.UnitState) error) {
	t.Helper()
	path := filepath.Join("testdata", name)

	var buf bytes.Buffer
	if err := encode(&buf, st); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoder output differs from the pinned %s bytes — this breaks "+
			"states written by released binaries; bump FormatVersion if intended\n"+
			"got:\n%s\nwant:\n%s", name, hex.Dump(buf.Bytes()), hex.Dump(want))
	}

	// The pinned bytes must also decode back to exactly the source state —
	// the decoder half of the contract.
	got, err := state.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("pinned golden bytes no longer decode: %v", err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("golden bytes decode to a different state:\ngot:  %+v\nwant: %+v", got, st)
	}
}

// goldenFootprintState adds the footprint block: every entry scope
// (invalidating, advisory, link) in canonical order, plus the declared
// hash recorded verbatim.
func goldenFootprintState() *core.UnitState {
	st := goldenState()
	st.Footprint = &footprint.Record{
		DeclaredHash: 0xDEADBEEF12345678,
		Entries: []footprint.Entry{
			{Kind: footprint.KindSource, Name: "golden.mc", Hash: 0x1111},
			{Kind: footprint.KindPipeline, Name: "pipeline", Hash: 0x2222},
			{Kind: footprint.KindFile, Name: "cache/golden-0011223344556677.state", Hash: 0x3333},
			{Kind: footprint.KindCall, Name: "ext_helper", Hash: 2},
			{Kind: footprint.KindGlobal, Name: "g0", Hash: 0x4444},
		},
	}
	return st
}

func TestGoldenFormatV8(t *testing.T) {
	if state.FormatVersion != 8 {
		t.Fatalf("FormatVersion is %d; regenerate the golden files for the new layout "+
			"(go test ./internal/state -update) and rename them accordingly", state.FormatVersion)
	}
	states := []*core.UnitState{goldenState(), goldenQuarantinedState(), goldenFootprintState()}
	for i, name := range currentLayoutFiles {
		checkGolden(t, name, states[i], state.Encode)
	}
}

// TestDecodeEveryPrefix feeds the decoder every strict prefix of the
// golden v8 files. A truncated state file — what a power loss after the
// rename can leave, since saves do not fsync — must always be rejected,
// never misparsed into a partial state. The frozen v7 to v3 files are
// walked too: every prefix of an older layout is an error, never a panic.
func TestDecodeEveryPrefix(t *testing.T) {
	for _, file := range append(append([]string(nil), currentLayoutFiles...), olderLayoutFiles...) {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("golden file missing: %v", err)
		}
		for n := 0; n < len(data); n++ {
			if st, err := state.Decode(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded without error: %+v",
					file, n, len(data), st)
			}
		}
	}
}

// TestChecksumRejectsEveryByteFlip is the power-loss walk at the decoder:
// every byte of each golden v8 file flipped in turn, and every truncation,
// must be rejected by DecodeBytes with no state returned. A flip in the
// header fails the magic, version or checksum compare; anywhere else the
// CRC-32C, which detects every burst of up to 32 bits, does.
func TestChecksumRejectsEveryByteFlip(t *testing.T) {
	for _, file := range currentLayoutFiles {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("golden file missing: %v", err)
		}
		if _, err := state.DecodeBytes(bytes.Clone(data)); err != nil {
			t.Fatalf("%s does not decode intact: %v", file, err)
		}
		for i := range data {
			damaged := bytes.Clone(data)
			damaged[i] ^= 0xFF
			if st, err := state.DecodeBytes(damaged); err == nil || st != nil {
				t.Fatalf("%s with byte %d flipped: state %+v, err %v; want a rejection", file, i, st, err)
			}
		}
		for n := 0; n < len(data); n++ {
			if st, err := state.DecodeBytes(bytes.Clone(data[:n])); err == nil || st != nil {
				t.Fatalf("%s truncated to %d/%d bytes: state %+v, err %v; want a rejection", file, n, len(data), st, err)
			}
		}
		// The checksum, not the parser, rejects a body flip.
		damaged := bytes.Clone(data)
		damaged[len(damaged)-1] ^= 0xFF
		if _, err := state.DecodeBytes(damaged); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("%s with its last byte flipped: err %v, want a checksum mismatch", file, err)
		}
	}
}

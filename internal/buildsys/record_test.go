package buildsys_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/compiler"
	histpkg "statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
)

// firstShape is rec in the shape builds handed the recorder until a report
// became its record: a {"cached":true} entry and a "skip" event on worker -1
// for every unit of snap the record does not list, the pass name from
// pipeline in every decision row, and no Pipeline or CachedDigest.
// Normalize brings it back.
func firstShape(t *testing.T, rec *histpkg.Record, snap project.Snapshot, pipeline []string) *histpkg.Record {
	t.Helper()
	line, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var old histpkg.Record
	if err := json.Unmarshal(line, &old); err != nil {
		t.Fatal(err)
	}
	old.Pipeline, old.CachedDigest = nil, ""
	for _, u := range old.Units {
		for i := range u.Passes {
			u.Passes[i].Pass = pipeline[i]
		}
	}
	events := old.Timeline.Events
	for _, name := range snap.Units() {
		if _, ok := old.Units[name]; ok {
			continue
		}
		old.Units[name] = histpkg.UnitRecord{Cached: true}
		at := int64(1000 * len(events))
		events = append(events, obs.UnitEvent{Unit: name, Worker: -1, Outcome: "skip", StartNS: at, EndNS: at + 500})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Unit < events[j].Unit })
	old.Timeline.Events = events
	return &old
}

// TestReportIsTheStoredRecord holds the write side of the flight recorder to
// its read side. Over a stream whose builds compile units, fetch units from
// the shared cache, quarantine a unit whose pass panicked and serve a unit the
// footprint check named, built by one resident builder and by a fresh builder
// per commit, every report's Record
//
//   - is the newest line of the history file, byte for byte, and what
//     reading that line gives, before and after Normalize;
//   - is what Normalize makes of the same build in the shape builds wrote
//     before (firstShape), which encodes to the same keys in the same order.
func TestReportIsTheStoredRecord(t *testing.T) {
	seq := history(23, 3)
	store := cas.NewMemCAS(0)
	pub, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, Pipeline: advPipeline, CAS: store})
	if err != nil {
		t.Fatal(err)
	}
	// The units of seq[1] are in the shared cache before the stream starts.
	mustBuild(t, pub, seq[1])

	// From build 3 on, the resident builder is told one unchanged unit moved;
	// its footprint says otherwise and is enforced, so the unit is served from
	// the object cache and named in FootprintRedundant.
	var liar string
	for _, name := range seq[3].Units() {
		if bytes.Equal(seq[2][name], seq[3][name]) {
			liar = name
		}
	}
	builds := 0
	hook := func(unit string, _ []byte, honest uint64) uint64 {
		if unit == liar && builds >= 3 {
			return honest + 1
		}
		return honest
	}
	opts := func(dir string) buildsys.Options {
		return buildsys.Options{
			Mode: compiler.ModeStateful, Workers: 2, Pipeline: advPipeline, StateDir: dir, CAS: store,
			Footprint: true, EnforceFootprint: true, ContentHashHook: hook,
		}
	}

	for _, resident := range []bool{true, false} {
		dir := t.TempDir()
		var b *buildsys.Builder
		seen := map[string]bool{}
		for i, snap := range seq {
			builds = i
			if b == nil || !resident {
				if b, err = buildsys.NewBuilder(opts(dir)); err != nil {
					t.Fatal(err)
				}
			}
			if i == 2 {
				passes.ArmFaultHook(passes.FaultConfig{Mode: passes.FaultPanic, Times: 1})
			}
			rep := mustBuild(t, b, snap)
			passes.DisarmFaultHook()

			for name, u := range rep.Units {
				seen["compiled"] = seen["compiled"] || len(u.Passes) > 0
				seen["remote"] = seen["remote"] || u.Remote
				seen["quarantined"] = seen["quarantined"] || u.Quarantine != "" && u.Panicked
				seen["footprint-named cached"] = seen["footprint-named cached"] || u.Cached && !u.Remote
				if u.Cached && !u.Remote && name != liar {
					t.Errorf("resident=%v build %d: lists cached unit %s, which the footprint check did not name", resident, i, name)
				}
			}
			seen["cached"] = seen["cached"] || rep.CachedDigest != ""

			raw, err := os.ReadFile(histpkg.Path(dir))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			stored := lines[len(lines)-1]
			line, err := rep.Record.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(line, stored) {
				t.Fatalf("resident=%v build %d: the history holds\n%s\nthe report\n%s", resident, i, stored, line)
			}
			var read histpkg.Record
			if err := json.Unmarshal(stored, &read); err != nil || !reflect.DeepEqual(read, rep.Record) {
				t.Errorf("resident=%v build %d: the stored line reads back as\n%+v\nnot\n%+v (err %v)", resident, i, read, rep.Record, err)
			}
			read.Normalize()
			if !reflect.DeepEqual(read, rep.Record) {
				t.Errorf("resident=%v build %d: the record is not a fixed point of Normalize:\n%+v\n%+v", resident, i, read, rep.Record)
			}

			old := firstShape(t, &rep.Record, snap, advPipeline)
			if len(old.Units) != len(snap) {
				t.Fatalf("resident=%v build %d: first shape has %d units, want %d", resident, i, len(old.Units), len(snap))
			}
			old.Normalize()
			if !reflect.DeepEqual(*old, rep.Record) {
				t.Errorf("resident=%v build %d: the first shape normalizes to\n%+v\nnot\n%+v", resident, i, *old, rep.Record)
			}
			if oldLine, err := old.Encode(); err != nil || !bytes.Equal(oldLine, stored) {
				t.Errorf("resident=%v build %d: the first shape, normalized, encodes to\n%s\nnot\n%s (err %v)", resident, i, oldLine, stored, err)
			}
		}
		// A fresh builder has no object cache, hence no footprint to check.
		want := []string{"compiled", "remote", "quarantined"}
		if resident {
			want = append(want, "cached", "footprint-named cached")
		}
		for _, what := range want {
			if !seen[what] {
				t.Errorf("resident=%v: the stream never had a %s unit; the case is wrong about itself", resident, what)
			}
		}
	}
}

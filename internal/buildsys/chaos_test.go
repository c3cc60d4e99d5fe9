package buildsys_test

// Build-system chaos suite — the tentpole robustness guarantee: walk every
// injectable state/history I/O fault point of a build→edit→rebuild
// sequence (including a fresh-process disk reload whose state saves are
// elided, a fresh process whose saves write, no-edit rebuilds whose only
// I/O is the flight recorder's, with and without another writer's append
// before them, and the start-up sweep of a crashed predecessor's temp files)
// and prove the "never worse than cold" degradation invariant:
//
//  1. the builder returns success whenever the compile itself succeeds —
//     state-layer and flight-recorder failures surface as Report.Warnings
//     and state.io_error / history.io_error counts, never build errors;
//  2. every linked program is byte-identical (by disassembly) to a
//     stateless build of the same snapshot, no matter which I/O call
//     failed, crashed, or tore; and
//  3. after the fault clears, one clean build re-persists state and the
//     next fresh builder recovers the full skip rate of an unfaulted run.
//
// Fault points are enumerated by recording a clean run over the vfs seam
// — the harness asserts its own coverage instead of trusting a hand-kept
// list.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/faults"
	"statefulcc/internal/faults/chaostest"
	histpkg "statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
	"statefulcc/internal/state"
	"statefulcc/internal/vfs"
)

// chaosEditedSnap is twoUnitSnap with lib.mc edited (same signature, new
// body) — the "edit" step of the build→edit→rebuild sequence.
func chaosEditedSnap() project.Snapshot {
	s := twoUnitSnap()
	s["lib.mc"] = []byte(`
func helper(n int) int {
    var s int = 0;
    for var i int = 0; i < n; i++ { s += i * 3 + 1; }
    return s - n;
}
`)
	return s
}

// orphanPattern is the glob of the temp files older builders' state saves
// created and renamed; the start-up sweep still removes them.
const orphanPattern = ".state-*"

// chaosCanon builds the suite's canonicalizer over a state directory.
func chaosCanon(stateDir string) vfs.Option {
	return vfs.WithCanon(chaostest.Canon(stateDir, orphanPattern, histpkg.TempPattern))
}

// chaosBuilder constructs a stateful builder over fsys. Workers is a
// parameter: 1 gives a fully deterministic call sequence for the recorded
// walk; >1 exercises the concurrent path under seeded schedules.
func chaosBuilder(t *testing.T, fsys vfs.FS, stateDir string, workers int) *buildsys.Builder {
	t.Helper()
	b, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: stateDir, Workers: workers, FS: fsys,
	})
	if err != nil {
		t.Fatalf("builder creation must survive I/O faults: %v", err)
	}
	return b
}

// chaosWideSnap is chaosEditedSnap with both units edited again — the
// commit the last "process" of the sequence builds, so that both of its
// state saves find different bytes on disk and really write.
func chaosWideSnap() project.Snapshot {
	s := chaosEditedSnap()
	s["lib.mc"] = append(s["lib.mc"], []byte(`
func twice(n int) int { return n + n; }
`)...)
	s["main.mc"] = []byte(`
extern func helper(n int) int;
func main() int { print("sum", helper(6)); return helper(6) + helper(2); }
`)
	return s
}

// plantOrphans leaves the temp files an older builder would have left had
// it died with one state save per unit creating its file through a temp
// file. Every builder of the sequence starts over such a directory, so the
// start-up sweep's removals are part of the recorded walk. Written past the
// fault injector: the crash being simulated already happened.
func plantOrphans(t *testing.T, stateDir string) {
	t.Helper()
	for _, unit := range []string{"lib", "main"} {
		name := strings.Replace(orphanPattern, "*", "orphan-"+unit, 1)
		if err := os.WriteFile(filepath.Join(stateDir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// chaosStep is one build of the workload under test.
type chaosStep struct {
	name    string
	fresh   bool // built by a new builder over the same state directory
	foreign bool // another process appends to the history before the build
	snap    func() project.Snapshot
}

// chaosIdleBuilds is how many times the last builder builds C again with
// nothing edited. Every unit is served from memory, no state file is touched
// and the link checks no object: the flight recorder's append is the only I/O
// such a build does, so these steps walk its fault points and nothing else.
// The builder's appender finds history.jsonl as its own last append left it,
// so each of these appends is stat, openfile, write, close, stat and reads
// nothing; a fault on one of those calls drops the appender's memory, and the
// next idle build walks the full path — mkdirall, stat, open, reads, close,
// then the write — from there. Every fresh builder's append takes the full
// path too: "build A" finds no file, and the two fresh-builder steps' appends
// are where the reads of history.jsonl the walk names come from.
const chaosIdleBuilds = 6

// chaosForeignBuilds is how many times, after the idle builds, another
// process appends a record to history.jsonl and then the last builder builds
// C again with nothing edited. The builder's appender finds the segment grown
// by a line it did not write: each of these appends is the stat that finds
// the segment moved, then a resident builder's full path — mkdirall, stat,
// open, two reads, close, openfile, write, close, stat — numbering after the
// other writer's record. The other
// process writes past the fault injector: its I/O is not the builder's, and
// its record is there whatever the fault did to the builder's. Seven of these
// give history.jsonl as many mkdiralls, opens, reads and closes over the
// sequence as it had when every append read the file's end, so every fault
// point the walk has ever named is still a point.
const chaosForeignBuilds = 7

// chaosSteps is the workload under test: build A, edit, rebuild B, a fresh
// builder ("new process") rebuilding B from disk state (both state saves
// find their bytes on disk and are elided), another fresh builder
// building C (both saves write), and that builder building C again
// chaosIdleBuilds times, then chaosForeignBuilds times after another
// writer's append.
var chaosSteps = func() []chaosStep {
	steps := []chaosStep{
		{name: "build A", fresh: true, snap: twoUnitSnap},
		{name: "rebuild B", snap: chaosEditedSnap},
		{name: "fresh-builder rebuild B", fresh: true, snap: chaosEditedSnap},
		{name: "fresh-builder build C", fresh: true, snap: chaosWideSnap},
	}
	for i := 0; i < chaosIdleBuilds; i++ {
		steps = append(steps, chaosStep{name: "no-edit rebuild C", snap: chaosWideSnap})
	}
	for i := 0; i < chaosForeignBuilds; i++ {
		steps = append(steps, chaosStep{name: "no-edit rebuild C after another writer", foreign: true, snap: chaosWideSnap})
	}
	return steps
}()

// chaosStream is the snapshot of every step of chaosSteps.
func chaosStream() (stream []project.Snapshot) {
	for _, st := range chaosSteps {
		stream = append(stream, st.snap())
	}
	return stream
}

// chaosCandidate walks chaosSteps over builders made by mk: a step marked
// fresh plants an older builder's orphans and starts a new builder over
// stateDir, one marked foreign appends another process's record to the
// history first. Builds must succeed: the compile itself never touches the
// filesystem (sources come from the in-memory snapshot), so any build error
// means a state/history I/O fault escaped the degradation layer.
func chaosCandidate(t *testing.T, stateDir string, mk func() *buildsys.Builder) oracletest.Candidate {
	var b *buildsys.Builder
	return oracletest.Candidate{Name: "chaos sequence", Build: func(i int, snap project.Snapshot) (*buildsys.Report, error) {
		st := chaosSteps[i]
		if st.fresh {
			plantOrphans(t, stateDir)
			b = mk()
		}
		if st.foreign {
			rec := &histpkg.Record{TimeUnixMS: 1700000000000 + int64(i), Mode: "stateless", Workers: 1}
			if err := histpkg.AppendFS(vfs.OS, histpkg.Path(stateDir), rec, 0); err != nil {
				return nil, fmt.Errorf("%s: the other writer's append: %w", st.name, err)
			}
		}
		rep, err := b.Build(snap)
		if err != nil {
			return nil, fmt.Errorf("%s failed under injected I/O fault: %w", st.name, err)
		}
		return rep, nil
	}}
}

// chaosSequence walks chaosCandidate over chaosBuilder against the
// stateless baselines.
func chaosSequence(t *testing.T, bases []oracletest.Ref, fsys vfs.FS, stateDir string, workers int) {
	t.Helper()
	oracletest.Walk(t, chaosStream(), bases, chaosCandidate(t, stateDir, func() *buildsys.Builder {
		return chaosBuilder(t, fsys, stateDir, workers)
	}))
}

// chaosBaselines are the stateless builds of chaosSteps' snapshots — the
// byte-identity baselines every faulted build is compared against.
func chaosBaselines(t *testing.T) []oracletest.Ref {
	t.Helper()
	bases := oracletest.Reference(t, nil, chaosStream()...)
	if bases[0].Dis == bases[1].Dis || bases[2].Dis == bases[3].Dis {
		t.Fatal("edited snapshot compiles identically; the edit step is vacuous")
	}
	return bases
}

// controlSkips measures the full skip rate of an unfaulted fresh builder:
// one clean builder persists state for snapB, then another loads it and
// rebuilds. The walk's recovery invariant must reach exactly this number.
func controlSkips(t *testing.T) int {
	t.Helper()
	dir := t.TempDir()
	snapB := chaosEditedSnap()
	mustBuild(t, chaosBuilder(t, nil, dir, 1), snapB)
	rep := mustBuild(t, chaosBuilder(t, nil, dir, 1), snapB)
	_, _, skipped := rep.Stats().Totals()
	if skipped == 0 {
		t.Fatal("control run has zero skips; the recovery invariant would be vacuous")
	}
	return skipped
}

// assertRecovered checks the recovery invariant over a possibly-damaged
// state directory: a clean (fault-free) build heals the persisted state,
// and the next fresh builder reaches the full control skip rate. A state or
// memo file a faulted save left torn is rejected by the healing build's
// load — its only warnings may say so — and rewritten by its save; the
// build after it warns about nothing.
func assertRecovered(t *testing.T, stateDir string, wantB oracletest.Ref, wantSkips int) {
	t.Helper()
	snapB := chaosEditedSnap()
	repHeal := mustBuild(t, chaosBuilder(t, nil, stateDir, 1), snapB)
	for _, w := range repHeal.Warnings {
		if !strings.HasPrefix(w, "state: load ") || !strings.HasSuffix(w, "(running cold)") && !strings.HasSuffix(w, "(replaying nothing)") {
			t.Fatalf("fault-free healing build warned about more than a rejected state file: %v", repHeal.Warnings)
		}
	}
	if d := wantB.Diff(repHeal.Program); d != "" {
		t.Fatalf("healing build output differs from the stateless baseline: %s", d)
	}
	repWarm := mustBuild(t, chaosBuilder(t, nil, stateDir, 1), snapB)
	if len(repWarm.Warnings) != 0 {
		t.Fatalf("the build after the healing build still warned: %v", repWarm.Warnings)
	}
	if d := wantB.Diff(repWarm.Program); d != "" {
		t.Fatalf("post-recovery warm build output differs from the stateless baseline: %s", d)
	}
	if _, _, skipped := repWarm.Stats().Totals(); skipped != wantSkips {
		t.Fatalf("post-recovery skip count = %d, want full control rate %d", skipped, wantSkips)
	}
}

// TestChaosBuildRebuild is the fault-point walk over the whole sequence.
func TestChaosBuildRebuild(t *testing.T) {
	bases := chaosBaselines(t)
	wantSkips := controlSkips(t)

	// Record a clean run to enumerate the fault points (Workers 1 keeps the
	// recorded call sequence deterministic).
	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, chaosCanon(recDir))
	chaosSequence(t, bases, rec, recDir, 1)
	points := chaostest.Points(rec.Calls())
	if len(points) < 30 {
		t.Fatalf("recorded only %d fault points; the vfs seam has shrunk: %v", len(points), points)
	}
	cov := chaostest.OpsCovered(points)
	for _, op := range []vfs.Op{vfs.OpMkdirAll, vfs.OpReadDir, vfs.OpOpen, vfs.OpOpenFile,
		vfs.OpRead, vfs.OpWrite, vfs.OpTruncate, vfs.OpClose, vfs.OpRemove} {
		if cov[op] == 0 {
			t.Fatalf("sequence never performs %s; the walk is not covering the I/O surface (%v)", op, cov)
		}
	}
	t.Logf("walking %d fault points (%d ops)", len(points), len(cov))

	for _, p := range points {
		kinds := []vfs.Fault{vfs.FaultError, vfs.FaultCrash}
		if p.Op == vfs.OpWrite {
			kinds = append(kinds, vfs.FaultTorn)
		}
		for _, kind := range kinds {
			p, kind := p, kind
			t.Run(chaostest.Name(p, kind), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir), vfs.WithRules(chaostest.RuleFor(p, kind)))
				// Invariant: byte-identical output under every fault.
				chaosSequence(t, bases, ffs, dir, 1)

				// Coverage self-check. Flight-recorder records embed build
				// timings, so buffered write/read chunk counts can shift ±1
				// between runs; a point that provably did not occur in this
				// replay is tolerated, anything else must fire.
				chaostest.AssertFiredOrAbsent(t, ffs.Log, p)

				// Invariant: the fault clears, state heals, skips recover.
				assertRecovered(t, dir, bases[1], wantSkips)
			})
		}
	}
}

// stateCloses returns the calls that end a state save that wrote: the
// Close of a state file's handle after a Write through it.
func stateCloses(calls []faults.Call) []faults.Call { return savesClosed(calls, ".state") }

// savesClosed returns the Close of each handle of a file with the suffix
// after a Write through it.
func savesClosed(calls []faults.Call, suffix string) (out []faults.Call) {
	wrote := map[string]bool{}
	for _, c := range calls {
		if !strings.HasSuffix(c.Path, suffix) {
			continue
		}
		switch c.Op {
		case vfs.OpWrite:
			wrote[c.Path] = true
		case vfs.OpClose:
			if wrote[c.Path] {
				out = append(out, c)
			}
			wrote[c.Path] = false
		}
	}
	return out
}

// TestChaosPowerLoss is the power-loss walk over the same sequence. State
// saves do not fsync, so at the close of every save that writes a state
// file, creating or overwriting it, the walk lets the close succeed and
// loses the data — the file is zeroed, cut short or has a byte flipped
// (vfs.FaultLost) — and the process dies there (every later call fails). The builds up to and after the loss
// still link the stateless oracle's programs. The next process, a fresh
// builder over the healthy disk, finds the damaged file: the unit runs cold
// (no skip, every run a cold decision), the load is counted in
// state.io_error and warned about, the program is still the oracle's, and
// the file is rewritten — after which the directory recovers the full skip
// rate.
func TestChaosPowerLoss(t *testing.T) {
	bases := chaosBaselines(t)
	wantSkips := controlSkips(t)

	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, chaosCanon(recDir))
	chaosSequence(t, bases, rec, recDir, 1)
	writes := stateCloses(rec.Calls())
	// build A creates both units' files, rebuild B overwrites lib.mc's,
	// fresh-builder build C both.
	if len(writes) != 5 {
		t.Fatalf("recorded %d state saves that wrote, want 5: %v", len(writes), writes)
	}
	reboot := chaosWideSnap()
	unitOf := map[string]string{} // state file name → unit
	for _, u := range reboot.Units() {
		unitOf[filepath.Base(buildsys.StatePath(recDir, u))] = u
	}

	created := map[string]bool{} // the recording starts empty: a file's first save creates it
	for _, p := range writes {
		creates := !created[p.Path]
		created[p.Path] = true
		for _, d := range chaostest.Damages {
			p, d := p, d
			t.Run(chaostest.LostName(p, d, creates), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir), vfs.WithRules(chaostest.LostRule(p, d, 16)))
				chaosSequence(t, bases, ffs, dir, 1)
				chaostest.AssertFired(t, ffs.Log, p)

				unit := unitOf[p.Path]
				rep := mustBuild(t, chaosBuilder(t, nil, dir, 1), reboot)
				if d := bases[len(bases)-1].Diff(rep.Program); d != "" {
					t.Errorf("the build after the power loss differs from the stateless baseline: %s", d)
				}
				if got := rep.Metrics[obs.CtrStateIOErrors]; got != 1 {
					t.Errorf("%s = %d after one damaged file, want 1 (warnings %v)", obs.CtrStateIOErrors, got, rep.Warnings)
				}
				if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "state: load "+p.Path) ||
					!strings.Contains(rep.Warnings[0], "running cold") {
					t.Errorf("warnings %q, want one that %s ran cold", rep.Warnings, p.Path)
				}
				ur := rep.Unit(unit)
				if ur.Cached || len(ur.Passes) == 0 {
					t.Fatalf("unit %s was not compiled after the power loss: %+v", unit, ur)
				}
				for i := range ur.Passes {
					if s := &ur.Passes[i]; s.Skipped != 0 || s.Cold != s.Runs {
						t.Fatalf("unit %s slot %s: %d skipped, %d of %d runs cold; want a cold unit",
							unit, rep.PassName(i, s), s.Skipped, s.Cold, s.Runs)
					}
				}
				raw, err := os.ReadFile(filepath.Join(dir, p.Path))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := state.DecodeBytes(raw); err != nil {
					t.Errorf("the damaged file was not rewritten: %v", err)
				}
				assertRecovered(t, dir, bases[1], wantSkips)
			})
		}
	}
}

// TestChaosMemoPowerLoss is the power-loss walk at the close of every memo
// save that wrote: the close succeeds, the file is zeroed, cut short or has
// a byte flipped, and the process dies. The next process links the
// stateless oracle's program, rejects the damaged memo (state.memo_rejected
// 1, one warning), replays nothing of its unit, and rewrites the file, after
// which the directory recovers the full skip rate.
func TestChaosMemoPowerLoss(t *testing.T) {
	bases := chaosBaselines(t)
	wantSkips := controlSkips(t)

	recDir := t.TempDir()
	rec := vfs.NewFaultFS(vfs.OS, chaosCanon(recDir))
	chaosSequence(t, bases, rec, recDir, 1)
	writes := savesClosed(rec.Calls(), ".memo")
	if len(writes) == 0 {
		t.Fatal("the sequence saved no memo file")
	}
	reboot := chaosWideSnap()
	unitOf := map[string]string{} // memo file name → unit
	for _, u := range reboot.Units() {
		unitOf[filepath.Base(buildsys.MemoPath(recDir, u))] = u
	}
	for _, p := range writes {
		for _, d := range chaostest.Damages {
			p, d := p, d
			t.Run(chaostest.LostName(p, d, false), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir), vfs.WithRules(chaostest.LostRule(p, d, 16)))
				chaosSequence(t, bases, ffs, dir, 1)
				chaostest.AssertFired(t, ffs.Log, p)

				unit := unitOf[p.Path]
				rep := mustBuild(t, chaosBuilder(t, nil, dir, 1), reboot)
				if d := bases[len(bases)-1].Diff(rep.Program); d != "" {
					t.Errorf("the build after the power loss differs from the stateless baseline: %s", d)
				}
				if got := rep.Metrics[obs.CtrStateMemoRejected]; got != 1 {
					t.Errorf("%s = %d after one damaged memo, want 1 (warnings %v)", obs.CtrStateMemoRejected, got, rep.Warnings)
				}
				if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "state: load "+p.Path) {
					t.Errorf("warnings %q, want one about %s", rep.Warnings, p.Path)
				}
				ur := rep.Unit(unit)
				for i := range ur.Passes {
					if s := &ur.Passes[i]; s.Replayed != 0 {
						t.Fatalf("unit %s slot %s replayed %d functions from a damaged memo", unit, rep.PassName(i, s), s.Replayed)
					}
				}
				if rep.Metrics[obs.CtrStateMemoSaves] == 0 {
					t.Error("the damaged memo file was not rewritten")
				}
				assertRecovered(t, dir, bases[1], wantSkips)
			})
		}
	}
}

// TestChaosStateSaveSurfaced: failing every state save must keep the build
// green while surfacing the degradation as warnings and counters.
func TestChaosStateSaveSurfaced(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpOpenFile, Path: "*.state", Kind: vfs.FaultError}))
	b := chaosBuilder(t, ffs, dir, 1)
	rep := mustBuild(t, b, twoUnitSnap())

	if got := rep.Metrics[obs.CtrStateIOErrors]; got < 2 {
		t.Errorf("%s = %d, want one per unit (≥2)", obs.CtrStateIOErrors, got)
	}
	if got := rep.Metrics[obs.CtrStateSaves]; got != 0 {
		t.Errorf("%s = %d with every save failing", obs.CtrStateSaves, got)
	}
	var stateWarn bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "state: save") {
			stateWarn = true
		}
	}
	if !stateWarn {
		t.Errorf("no save warning in Report.Warnings: %v", rep.Warnings)
	}
	if d := oracletest.Reference(t, nil, twoUnitSnap())[0].Diff(rep.Program); d != "" {
		t.Errorf("degraded build output differs from the stateless baseline: %s", d)
	}
}

// TestChaosStateLoadSurfaced: unreadable state files mean a cold start
// (correct output, no skips) plus warnings and counters — never an error.
func TestChaosStateLoadSurfaced(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	mustBuild(t, chaosBuilder(t, nil, dir, 1), snap) // persist good state

	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpRead, Path: "*" + ".state", Kind: vfs.FaultError}))
	rep := mustBuild(t, chaosBuilder(t, ffs, dir, 1), snap)

	if got := rep.Metrics[obs.CtrStateIOErrors]; got < 2 {
		t.Errorf("%s = %d, want one per unreadable unit (≥2)", obs.CtrStateIOErrors, got)
	}
	if got := rep.Metrics[obs.CtrStateLoadMisses]; got < 2 {
		t.Errorf("%s = %d, want failed loads counted as misses", obs.CtrStateLoadMisses, got)
	}
	var loadWarn bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "state: load") && strings.Contains(w, "running cold") {
			loadWarn = true
		}
	}
	if !loadWarn {
		t.Errorf("no load warning in Report.Warnings: %v", rep.Warnings)
	}
	if d := oracletest.Reference(t, nil, snap)[0].Diff(rep.Program); d != "" {
		t.Errorf("cold-start build output differs from the stateless baseline: %s", d)
	}
}

// TestChaosHistorySurfaced: a failing flight-recorder append must keep the
// build green, warn, and count history.io_error.
func TestChaosHistorySurfaced(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpOpenFile, Path: histpkg.FileName, Kind: vfs.FaultError}))
	b := chaosBuilder(t, ffs, dir, 1)
	rep := mustBuild(t, b, twoUnitSnap())

	var histWarn bool
	for _, w := range rep.Warnings {
		if strings.Contains(w, "history: append") {
			histWarn = true
		}
	}
	if !histWarn {
		t.Errorf("no history warning in Report.Warnings: %v", rep.Warnings)
	}
	// The counter lands after the report's own metrics snapshot (the append
	// runs last); read it from the builder.
	if got := b.Metrics()[obs.CtrHistoryIOErrors]; got < 1 {
		t.Errorf("%s = %d, want ≥1", obs.CtrHistoryIOErrors, got)
	}
}

// TestChaosHistoryReadFault: a read that fails while the flight recorder
// takes stock of its file drops this build's record and nothing else — the
// build is green and identical to the stateless one, the degradation is
// warned about and counted once, and the history keeps every byte it had
// (the append used to rewrite the file from the records read before the
// fault).
func TestChaosHistoryReadFault(t *testing.T) {
	dir := t.TempDir()
	mustBuild(t, chaosBuilder(t, nil, dir, 1), twoUnitSnap())
	hpath := histpkg.Path(dir)
	before, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatal(err)
	}

	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(
		vfs.Rule{Op: vfs.OpRead, Path: histpkg.FileName, Nth: 1, Kind: vfs.FaultError}))
	b := chaosBuilder(t, ffs, dir, 1)
	rep := mustBuild(t, b, chaosEditedSnap())
	if len(ffs.Injected()) != 1 {
		t.Fatalf("injected %v, want the one history read", ffs.Injected())
	}

	if d := oracletest.Reference(t, nil, chaosEditedSnap())[0].Diff(rep.Program); d != "" {
		t.Errorf("build output differs from the stateless baseline: %s", d)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "history: append") {
		t.Errorf("warnings = %q, want one about the history append", rep.Warnings)
	}
	if got := b.Metrics()[obs.CtrHistoryIOErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrHistoryIOErrors, got)
	}
	after, err := os.ReadFile(hpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		recs, _ := histpkg.Load(hpath)
		t.Errorf("history file changed under a read fault: %d bytes → %d, %d records", len(before), len(after), len(recs))
	}
}

// TestChaosWarningsBounded: a filesystem where everything fails must not
// balloon the report — warnings cap plus a dropped-count trailer.
func TestChaosWarningsBounded(t *testing.T) {
	dir := t.TempDir()
	snap := twoUnitSnap()
	for i := 0; i < 40; i++ { // enough units to overflow the 32-warning cap
		name := strings.Repeat("u", i%7+1) + fmt16ish(i) + ".mc"
		snap[name] = []byte(`func pad_` + fmt16ish(i) + `(x int) int { return x; }`)
	}
	ffs := vfs.NewFaultFS(vfs.OS, vfs.WithRules(vfs.Rule{Kind: vfs.FaultError})) // everything fails
	rep := mustBuild(t, chaosBuilder(t, ffs, dir, 1), snap)
	if len(rep.Warnings) > 33 { // 32 + the "and N more" trailer
		t.Fatalf("warnings not bounded: %d entries", len(rep.Warnings))
	}
	last := rep.Warnings[len(rep.Warnings)-1]
	if !strings.Contains(last, "more distinct warnings") {
		t.Fatalf("overflow trailer missing; last warning: %q", last)
	}
}

// fmt16ish renders a small int as letters so it is valid in identifiers.
func fmt16ish(i int) string {
	const alpha = "abcdefghij"
	return string([]byte{alpha[(i/10)%10], alpha[i%10]})
}

// TestChaosSeededSchedules: probabilistic multi-fault storms. Every seed
// must uphold the degradation invariant on the concurrent (Workers 2) path,
// and replaying the same seed must inject the same fault set — the property
// that makes a failing chaos seed reproducible from its seed alone. The
// replay is held at one worker: a fault is drawn per call identity
// (op:canonical-path#n), and with two workers the creating saves of both
// units share the identities mkdirall:<state dir>#k, so which unit's save
// meets a drawn fault — and then which state file is written — is the
// scheduler's choice, not the seed's.
func TestChaosSeededSchedules(t *testing.T) {
	bases := chaosBaselines(t)
	wantSkips := controlSkips(t)

	for _, seed := range []uint64{1, 7, 42, 1337} {
		seed := seed
		t.Run("seed"+strconv.FormatUint(seed, 10), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (injected []string) {
				dir := t.TempDir()
				ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir),
					vfs.WithSchedule(&vfs.Schedule{Seed: seed, Prob: 0.2, Torn: true}))
				chaosSequence(t, bases, ffs, dir, workers)
				// The write/read chunk points are left out: their identities
				// on volatile-size files (the history embeds timings)
				// legitimately come and go; everything else must match exactly.
				for _, c := range ffs.Injected() {
					if c.Op != vfs.OpWrite && c.Op != vfs.OpRead {
						injected = append(injected, c.String())
					}
				}
				sort.Strings(injected)
				return injected
			}

			run(2)

			// Same seed, fresh directory, one worker: the fault set replays.
			inj1, inj2 := run(1), run(1)
			if len(inj1) == 0 {
				t.Fatalf("seed %d injected nothing; the replay check is vacuous", seed)
			}
			if strings.Join(inj1, "\n") != strings.Join(inj2, "\n") {
				t.Fatalf("seed %d does not replay:\nrun1: %v\nrun2: %v", seed, inj1, inj2)
			}
		})
	}

	// Recovery after a storm: heal one stormed directory and verify full
	// skip-rate recovery.
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, chaosCanon(dir),
		vfs.WithSchedule(&vfs.Schedule{Seed: 99, Prob: 0.3, Torn: true}))
	chaosSequence(t, bases, ffs, dir, 2)
	assertRecovered(t, dir, bases[1], wantSkips)
}

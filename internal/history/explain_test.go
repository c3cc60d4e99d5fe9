package history_test

// Decision-provenance coverage: drive real builds through buildsys and
// assert the flight recorder charges each pass slot to the expected reason,
// and that `explain` (RenderExplain) surfaces it. One scenario per reason:
//
//	cold-state             first stateful build, no prior records
//	not-dormant-last-time  rebuild after an IR-preserving edit; passes that
//	                       changed IR last time (mem2reg) must re-run
//	skipped-dormant        same rebuild; passes that were dormant skip
//	fingerprint-mismatch   rebuild after a semantic edit; dormant records
//	                       no longer match the incoming IR
//	policy-disabled        stateless build: skipping is ineligible
//
// The package is history_test (not history) so it can import buildsys
// without a cycle.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/project"
)

const progV1 = `
func main() int {
    var x int = 1;
    return x;
}
`

// newRecordedBuilder returns a builder whose flight recorder writes under
// its own temp state directory, plus the history path.
func newRecordedBuilder(t *testing.T, mode compiler.Mode) (*buildsys.Builder, string) {
	t.Helper()
	stateDir := t.TempDir()
	histPath := history.Path(stateDir)
	opts := buildsys.Options{Mode: mode, HistoryPath: histPath, Workers: 1}
	if mode == compiler.ModeStateful {
		opts.StateDir = stateDir
	}
	b, err := buildsys.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	return b, histPath
}

func mustBuild(t *testing.T, b *buildsys.Builder, src string) {
	t.Helper()
	if _, err := b.Build(project.Snapshot{"main.mc": []byte(src)}); err != nil {
		t.Fatal(err)
	}
}

func mustLoad(t *testing.T, path string) []history.Record {
	t.Helper()
	recs, err := history.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// reasonCounts tallies the dominant reason of every active pass slot of a
// unit in a record.
func reasonCounts(t *testing.T, rec history.Record, unit string) map[string]int {
	t.Helper()
	ur, ok := rec.Units[unit]
	if !ok {
		t.Fatalf("record #%d has no unit %q (units: %v)", rec.Seq, unit, rec.Units)
	}
	out := map[string]int{}
	for _, row := range ur.Passes {
		out[row.Reason()]++
	}
	return out
}

func TestReasonColdState(t *testing.T) {
	b, hist := newRecordedBuilder(t, compiler.ModeStateful)
	mustBuild(t, b, progV1)

	recs := mustLoad(t, hist)
	if len(recs) != 1 {
		t.Fatalf("%d records after one build, want 1", len(recs))
	}
	counts := reasonCounts(t, recs[0], "main.mc")
	if len(counts) == 0 {
		t.Fatal("no pass decisions recorded")
	}
	for reason, n := range counts {
		if reason != core.ReasonColdState {
			t.Errorf("cold build charged %d slots to %q, want only %q", n, reason, core.ReasonColdState)
		}
	}
	if recs[0].Metrics["decision.cold_state"] == 0 {
		t.Error("decision.cold_state counter is zero after a cold build")
	}

	out, err := history.RenderExplain(recs, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, core.ReasonColdState) {
		t.Errorf("explain output missing %q:\n%s", core.ReasonColdState, out)
	}
}

func TestReasonSkippedDormantAndNotDormant(t *testing.T) {
	b, hist := newRecordedBuilder(t, compiler.ModeStateful)
	mustBuild(t, b, progV1)
	// IR-preserving edit: the content hash changes (forcing a recompile)
	// but the parsed program is identical, so dormancy replays exactly. It
	// is built by a new builder over the state directory without its memo
	// files: the resident builder, or one that loads the memo, would replay
	// the segments instead.
	memos, err := filepath.Glob(filepath.Join(filepath.Dir(hist), "*.memo"))
	if err != nil || len(memos) == 0 {
		t.Fatalf("no memo file beside the state (%v)", err)
	}
	for _, path := range memos {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	mustBuild(t, reopen(t, hist), progV1+"\n// touched\n")

	recs := mustLoad(t, hist)
	if len(recs) != 2 {
		t.Fatalf("%d records after two builds, want 2", len(recs))
	}
	rec := recs[1]
	ur := rec.Units["main.mc"]
	var sawSkip, sawNotDormant bool
	for slot, row := range ur.Passes {
		switch row.Reason() {
		case core.ReasonSkippedDormant:
			sawSkip = true
			if row.Skipped == 0 {
				t.Errorf("slot %d (%s) reason %q but skipped=0", slot, rec.PassName(slot, &row), row.Reason())
			}
		case core.ReasonNotDormant:
			sawNotDormant = true
		case core.ReasonColdState:
			t.Errorf("slot %d (%s) still cold on the second build", slot, rec.PassName(slot, &row))
		}
	}
	// mem2reg promoted an alloca last build, so its record is not dormant
	// and the slot must be charged to not-dormant-last-time.
	if len(ur.Passes) == 0 || rec.PassName(0, &ur.Passes[0]) != "mem2reg" {
		t.Fatalf("expected slot 0 to be mem2reg, got %+v of pipeline %v", ur.Passes, rec.Pipeline)
	}
	if got := ur.Passes[0].Reason(); got != core.ReasonNotDormant {
		t.Errorf("mem2reg reason %q, want %q", got, core.ReasonNotDormant)
	}
	if !sawSkip {
		t.Error("no slot charged to skipped-dormant on an identical-IR rebuild")
	}
	if !sawNotDormant {
		t.Error("no slot charged to not-dormant-last-time on an identical-IR rebuild")
	}

	out, err := history.RenderExplain(recs, "main.mc")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{core.ReasonSkippedDormant, core.ReasonNotDormant, core.ReasonColdState} {
		// Cold-state appears as the prev-reason column from build #1.
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	// The resident builder kept main's segment outputs: the same IR again
	// replays every function slot.
	mustBuild(t, b, progV1+"\n// touched twice\n")
	recs = mustLoad(t, hist)
	ur = recs[len(recs)-1].Units["main.mc"]
	if got := ur.Passes[0].Reason(); got != core.ReasonReplayed || ur.Passes[0].Replayed != 1 {
		t.Errorf("mem2reg on the resident rebuild: reason %q, replayed %d; want %q, 1", got, ur.Passes[0].Replayed, core.ReasonReplayed)
	}
	if out, err := history.RenderExplain(recs, "main.mc"); err != nil || !strings.Contains(out, core.ReasonReplayed) {
		t.Errorf("explain output missing %q (%v):\n%s", core.ReasonReplayed, err, out)
	}
}

// reopen returns a new builder over the state directory of the history at
// hist: a fresh process's view of it.
func reopen(t *testing.T, hist string) *buildsys.Builder {
	t.Helper()
	dir := filepath.Dir(hist)
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, HistoryPath: hist, StateDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReasonFingerprintMismatch(t *testing.T) {
	b, hist := newRecordedBuilder(t, compiler.ModeStateful)
	mustBuild(t, b, progV1)
	// Semantic edit: the constant changes, so every slot's incoming IR
	// fingerprint differs from what the dormancy records captured.
	mustBuild(t, b, strings.ReplaceAll(progV1, "= 1;", "= 2;"))

	recs := mustLoad(t, hist)
	rec := recs[len(recs)-1]

	// Slots dormant at the end of build 1 must now be charged to
	// fingerprint-mismatch (their records exist but no longer apply).
	dormantSlots := map[int]string{}
	for slot, row := range recs[0].Units["main.mc"].Passes {
		if row.Runs > 0 && row.Dormant == row.Runs {
			dormantSlots[slot] = recs[0].PassName(slot, &row)
		}
	}
	if len(dormantSlots) == 0 {
		t.Fatal("build 1 left no dormant slots; scenario cannot exercise fingerprint-mismatch")
	}
	var sawFP bool
	for slot, row := range rec.Units["main.mc"].Passes {
		if _, was := dormantSlots[slot]; !was {
			continue
		}
		if row.Reason() == core.ReasonFingerprintMismatch {
			sawFP = true
		} else if row.Reason() == core.ReasonSkippedDormant {
			t.Errorf("slot %d (%s) skipped despite a semantic edit", slot, rec.PassName(slot, &row))
		}
	}
	if !sawFP {
		t.Errorf("no previously-dormant slot charged to fingerprint-mismatch: %+v", rec.Units["main.mc"].Passes)
	}
	if rec.Metrics["decision.fingerprint_mismatch"] == 0 {
		t.Error("decision.fingerprint_mismatch counter is zero after a semantic edit")
	}

	out, err := history.RenderExplain(recs, "main.mc")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, core.ReasonFingerprintMismatch) {
		t.Errorf("explain output missing %q:\n%s", core.ReasonFingerprintMismatch, out)
	}
}

func TestReasonPolicyDisabled(t *testing.T) {
	b, hist := newRecordedBuilder(t, compiler.ModeStateless)
	mustBuild(t, b, progV1)

	recs := mustLoad(t, hist)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1 (history must record even stateless builds)", len(recs))
	}
	counts := reasonCounts(t, recs[0], "main.mc")
	for reason, n := range counts {
		if reason != core.ReasonPolicyDisabled {
			t.Errorf("stateless build charged %d slots to %q, want only %q", n, reason, core.ReasonPolicyDisabled)
		}
	}
	if recs[0].Metrics["decision.policy_disabled"] == 0 {
		t.Error("decision.policy_disabled counter is zero under stateless policy")
	}

	out, err := history.RenderExplain(recs, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, core.ReasonPolicyDisabled) {
		t.Errorf("explain output missing %q:\n%s", core.ReasonPolicyDisabled, out)
	}
}

// TestHistoryPathDefault: with a StateDir and no explicit HistoryPath the
// recorder lands in <state>/history.jsonl; "-" disables it.
func TestHistoryPathDefault(t *testing.T) {
	stateDir := t.TempDir()
	b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, b, progV1)
	recs := mustLoad(t, filepath.Join(stateDir, history.FileName))
	if len(recs) != 1 {
		t.Fatalf("default history path not written: %d records", len(recs))
	}

	offDir := t.TempDir()
	off, err := buildsys.NewBuilder(buildsys.Options{
		Mode: compiler.ModeStateful, StateDir: offDir, HistoryPath: "-",
	})
	if err != nil {
		t.Fatal(err)
	}
	mustBuild(t, off, progV1)
	if recs := mustLoad(t, filepath.Join(offDir, history.FileName)); len(recs) != 0 {
		t.Fatalf("HistoryPath=- still recorded %d records", len(recs))
	}
}

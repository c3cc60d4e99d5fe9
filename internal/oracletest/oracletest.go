// Package oracletest is the one differential driver of the build-level
// test batteries: a stateful build, in any mode, under any fault, must be
// byte-identical to a stateless build of the same snapshot. It is test
// support, imported only from _test.go files.
//
// A battery takes a stream of snapshots (Stream, or its own), the stateless
// reference of every snapshot (Reference, computed once and shared by every
// candidate), and walks one or more candidates through the stream (Walk).
// At each commit Walk fails on a build error, on a program that differs
// from the reference, and on an unsound skip the sentinel caught; the
// candidate's own Check then asserts its layer's invariant.
package oracletest

import (
	"fmt"
	"slices"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/project"
	"statefulcc/internal/testutil"
	"statefulcc/internal/vm"
	"statefulcc/internal/workload"
)

// Arms are the four policies every battery walks: no reuse, dormancy
// records alone (the paper's mechanism), segment replay alone (the full-IR
// caching comparator), and both.
var Arms = []core.Policy{core.Stateless, core.Records, core.Replay, core.Stateful}

// Stream is the snapshot sequence of one profile × stream kind × seed: the
// generated base, then commits commits of the stream.
func Stream(p workload.Profile, kind workload.StreamKind, seed int64, commits int) []project.Snapshot {
	base := workload.Generate(p)
	hist := workload.GenerateHistoryStream(base, seed, commits, workload.DefaultCommitOptions(), kind)
	return append([]project.Snapshot{base}, hist.Commits...)
}

// Ref is the stateless build of one snapshot.
type Ref struct {
	Program *codegen.Program
	// Dis is codegen.DisassembleProgram(Program).
	Dis string
}

// Diff says how p differs from the reference program, or "" if it does not:
// its disassembly, or the global segment's initial words, which the
// disassembly leaves out.
func (r Ref) Diff(p *codegen.Program) string {
	if dis := codegen.DisassembleProgram(p); dis != r.Dis {
		return fmt.Sprintf("disassembly differs from the stateless reference (%d vs %d bytes)", len(dis), len(r.Dis))
	}
	if !slices.Equal(p.GlobalInit, r.Program.GlobalInit) {
		return "global segment differs from the stateless reference"
	}
	return ""
}

// Reference builds every snapshot of stream on a fresh stateless builder
// (one worker, no flight recorder, so nothing carries over from one
// snapshot to the next) with the given pass pipeline (nil: the standard
// one). A snapshot equal to the one before it shares its reference. It
// fails when a snapshot's stateless build fails, and when the stream edits
// its sources but no edit changes the program: a builder that ignored every
// edit would pass such a stream. (A single edit may leave the program as it
// was, say a comment or a store the optimizer deletes.)
func Reference(t testing.TB, pipeline []string, stream ...project.Snapshot) []Ref {
	t.Helper()
	refs := make([]Ref, len(stream))
	edited, changed := false, false
	for i, snap := range stream {
		if i > 0 && len(project.Diff(stream[i-1], snap)) == 0 {
			refs[i] = refs[i-1]
			continue
		}
		b, err := buildsys.NewBuilder(buildsys.Options{
			Mode: compiler.ModeStateless, Workers: 1, HistoryPath: "-", Pipeline: pipeline,
		})
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		rep, err := b.Build(snap)
		if err != nil {
			t.Fatalf("reference: snapshot %d: %v", i, err)
		}
		refs[i] = Ref{rep.Program, codegen.DisassembleProgram(rep.Program)}
		if i > 0 {
			edited = true
			changed = changed || refs[i-1].Diff(rep.Program) != ""
		}
	}
	if edited && !changed {
		t.Fatalf("reference: no edit of the stream changes the program; the stream is vacuous")
	}
	return refs
}

// Unpruned is the reference of every snapshot of stream that does not go
// through the compiler's driver, and so removes no function before the
// first pass: each unit through testutil.CompileUnpruned with the given
// pipeline (nil: the standard one), the objects through codegen.Link.
// Reference goes through the driver, which prunes; a battery holds its
// candidates to both.
func Unpruned(t testing.TB, pipeline []string, stream ...project.Snapshot) []Ref {
	t.Helper()
	refs := make([]Ref, len(stream))
	for i, snap := range stream {
		var objs []*codegen.Object
		for _, unit := range snap.Units() {
			_, obj, err := testutil.CompileUnpruned(unit, string(snap[unit]), pipeline)
			if err != nil {
				t.Fatalf("unpruned reference: snapshot %d: %s: %v", i, unit, err)
			}
			objs = append(objs, obj)
		}
		p, err := codegen.Link(objs)
		if err != nil {
			t.Fatalf("unpruned reference: snapshot %d: %v", i, err)
		}
		refs[i] = Ref{p, codegen.DisassembleProgram(p)}
	}
	return refs
}

// LyingHook is a buildsys.Options.ContentHashHook that freezes each unit's
// first-seen declared hash: after an edit the declared channel still
// reports the hash from before it — the classic broken invalidator, which
// serves a stale object unless the footprint overrides it.
func LyingHook() func(string, []byte, uint64) uint64 {
	frozen := map[string]uint64{}
	return func(unit string, _ []byte, honest uint64) uint64 {
		if h, ok := frozen[unit]; ok {
			return h
		}
		frozen[unit] = honest
		return honest
	}
}

// Build builds commit i of a stream.
type Build func(i int, snap project.Snapshot) (*buildsys.Report, error)

// Resident builds every commit on b.
func Resident(b *buildsys.Builder) Build {
	return func(_ int, snap project.Snapshot) (*buildsys.Report, error) { return b.Build(snap) }
}

// Candidate is one stateful configuration under test.
type Candidate struct {
	Name  string
	Build Build
	// Check, when set, asserts the candidate's own invariant on commit i's
	// report after Walk's checks passed.
	Check func(i int, rep *buildsys.Report)
}

// Walk builds each commit of stream with every candidate in turn and fails
// on a build error, on a program that differs from ref, or on an unsound
// skip the sentinel caught; then it runs the candidate's Check.
func Walk(t testing.TB, stream []project.Snapshot, ref []Ref, cands ...Candidate) {
	t.Helper()
	if len(ref) != len(stream) {
		t.Fatalf("walk: %d references for %d commits", len(ref), len(stream))
	}
	for i, snap := range stream {
		for _, c := range cands {
			rep, err := c.Build(i, snap)
			if err != nil {
				t.Fatalf("%s: commit %d: %v", c.Name, i, err)
			}
			if d := ref[i].Diff(rep.Program); d != "" {
				t.Fatalf("%s: commit %d: %s", c.Name, i, d)
			}
			if _, unsound := rep.Stats().SentinelTotals(); unsound != 0 {
				t.Fatalf("%s: commit %d: %d unsound skips", c.Name, i, unsound)
			}
			if c.Check != nil {
				c.Check(i, rep)
			}
		}
	}
}

// Runs is a Check that runs commit i's program and its reference program
// and fails unless both finish with the same output, exit value and step
// count.
func Runs(t testing.TB, ref []Ref) func(i int, rep *buildsys.Report) {
	return func(i int, rep *buildsys.Report) {
		t.Helper()
		out, res, err := vm.RunCapture(rep.Program, vm.Config{})
		wantOut, wantRes, wantErr := vm.RunCapture(ref[i].Program, vm.Config{})
		if err != nil || wantErr != nil {
			t.Fatalf("commit %d: program trapped: %v; its reference: %v", i, err, wantErr)
		}
		if out != wantOut || res.ExitValue != wantRes.ExitValue || res.Steps != wantRes.Steps {
			t.Fatalf("commit %d: ran to %q/%d in %d steps; its reference to %q/%d in %d",
				i, out, res.ExitValue, res.Steps, wantOut, wantRes.ExitValue, wantRes.Steps)
		}
	}
}

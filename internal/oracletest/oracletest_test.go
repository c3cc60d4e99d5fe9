package oracletest_test

// The driver's own proof that it is not vacuous: a stale build is reported
// as a divergence on the commit that made it stale, and a stream that
// cannot tell a stale build from a fresh one is refused. Failures are
// captured through a fake testing.TB.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"statefulcc/internal/buildsys"
	"statefulcc/internal/compiler"
	"statefulcc/internal/oracletest"
	"statefulcc/internal/project"
)

// fakeTB records the first failure and ends the goroutine there, as
// t.Fatalf does.
type fakeTB struct {
	testing.TB
	failure string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failure = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// failure runs fn against a fake TB and returns what it reported, or "".
func failure(t *testing.T, fn func(tb testing.TB)) string {
	f := &fakeTB{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn(f)
	}()
	<-done
	return f.failure
}

// editStream is a two-unit project and the same project with lib.mc's
// helper computing something else.
func editStream() []project.Snapshot {
	mainSrc := []byte("extern func helper(n int) int;\nfunc main() int { print(\"sum\", helper(5)); return helper(5); }\n")
	lib := func(step string) []byte {
		return []byte("func helper(n int) int {\n    var s int = 0;\n    for var i int = 0; i < n; i++ { s += i" + step + "; }\n    return s;\n}\n")
	}
	return []project.Snapshot{
		{"lib.mc": lib(""), "main.mc": mainSrc},
		{"lib.mc": lib(" * 3 + 1"), "main.mc": mainSrc},
	}
}

// TestWalkReportsStaleBuild: a stateful builder with LyingHook (and no
// footprint enforcement to catch the lie) serves lib.mc's stale object
// after the edit; Walk must report it on commit 1. The same builder without
// the lie walks clean.
func TestWalkReportsStaleBuild(t *testing.T) {
	stream := editStream()
	ref := oracletest.Reference(t, nil, stream...)
	walk := func(hook func(string, []byte, uint64) uint64) string {
		b, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, ContentHashHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		return failure(t, func(tb testing.TB) {
			oracletest.Walk(tb, stream, ref, oracletest.Candidate{Name: "candidate", Build: oracletest.Resident(b)})
		})
	}
	if got := walk(nil); got != "" {
		t.Fatalf("honest builder failed the walk: %s", got)
	}
	got := walk(oracletest.LyingHook())
	if !strings.Contains(got, "candidate: commit 1: ") || !strings.Contains(got, "differs from the stateless reference") {
		t.Fatalf("stale build reported as %q, want a divergence on commit 1", got)
	}
}

// TestReferenceRefusesVacuousStream: an edit that only adds a comment
// leaves the program as it was, so a stream of it is refused.
func TestReferenceRefusesVacuousStream(t *testing.T) {
	stream := editStream()[:1]
	edited := stream[0].Clone()
	edited["lib.mc"] = append(edited["lib.mc"], "// no change to the program\n"...)
	stream = append(stream, edited)
	got := failure(t, func(tb testing.TB) { oracletest.Reference(tb, nil, stream...) })
	if !strings.Contains(got, "vacuous") {
		t.Fatalf("vacuous stream reported as %q, want it refused", got)
	}
}

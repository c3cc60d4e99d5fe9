package source_test

import (
	"os"
	"testing"

	"statefulcc/internal/parser"
	"statefulcc/internal/source"
	"statefulcc/internal/types"
)

// TestCleanCompileBuildsNoLineTable parses and checks a testdata program
// that has no diagnostic, and then, in a second run, asks for the file's
// line count: the second run allocates exactly one more time, the table, so
// the first built none.
func TestCleanCompileBuildsNoLineTable(t *testing.T) {
	src, err := os.ReadFile("../../testdata/queens.mc")
	if err != nil {
		t.Fatal(err)
	}
	compile := func(lines bool) func() {
		return func() {
			var errs source.ErrorList
			f := source.NewFile("queens.mc", src)
			types.Check(f, parser.ParseFile(f, &errs), &errs)
			if errs.Len() != 0 {
				t.Fatalf("queens.mc: %v", &errs)
			}
			if lines {
				f.NumLines()
			}
		}
	}
	clean, asked := testing.AllocsPerRun(20, compile(false)), testing.AllocsPerRun(20, compile(true))
	if asked != clean+1 {
		t.Errorf("a clean compile allocates %.0f times, %.0f when the line count is asked for; want one more, the table", clean, asked)
	}
}

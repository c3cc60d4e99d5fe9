package source

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestPositionResolution(t *testing.T) {
	f := NewFile("x.mc", []byte("abc\ndef\n\nxyz"))
	cases := []struct {
		off  int
		line int
		col  int
	}{
		{0, 1, 1}, {2, 1, 3}, {3, 1, 4}, // newline belongs to line 1
		{4, 2, 1}, {7, 2, 4},
		{8, 3, 1},
		{9, 4, 1}, {11, 4, 3},
	}
	for _, c := range cases {
		pos := f.Position(Pos(c.off))
		if pos.Line != c.line || pos.Column != c.col {
			t.Errorf("offset %d: got %d:%d, want %d:%d", c.off, pos.Line, pos.Column, c.line, c.col)
		}
		if pos.Filename != "x.mc" || pos.Offset != c.off {
			t.Errorf("offset %d: metadata wrong: %+v", c.off, pos)
		}
	}
	if f.NumLines() != 4 {
		t.Errorf("NumLines = %d, want 4", f.NumLines())
	}
	if f.Size() != 12 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestInvalidPositions(t *testing.T) {
	f := NewFile("x.mc", []byte("ab"))
	if p := f.Position(NoPos); p.Line != 0 || p.Filename != "x.mc" {
		t.Errorf("NoPos resolved to %+v", p)
	}
	if p := f.Position(Pos(100)); p.Line != 0 {
		t.Errorf("out-of-range resolved to %+v", p)
	}
	if NoPos.IsValid() || !Pos(0).IsValid() {
		t.Error("IsValid broken")
	}
}

func TestPositionMonotonic(t *testing.T) {
	content := []byte("line one\nsecond\n\nfourth line here\nx")
	f := NewFile("m.mc", content)
	check := func(off uint8) bool {
		o := int(off) % (len(content) + 1)
		p := f.Position(Pos(o))
		if p.Line < 1 || p.Column < 1 {
			return false
		}
		// Reconstruct the offset from (line, col).
		lineStart := 0
		line := 1
		for i := 0; i < o; i++ {
			if content[i] == '\n' {
				line++
				lineStart = i + 1
			}
		}
		return p.Line == line && p.Column == o-lineStart+1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSnippet(t *testing.T) {
	f := NewFile("x.mc", []byte("first\nsecond line\nthird"))
	if s := f.Snippet(Pos(8)); s != "second line" {
		t.Errorf("snippet = %q", s)
	}
	if s := f.Snippet(Pos(0)); s != "first" {
		t.Errorf("snippet = %q", s)
	}
	if s := f.Snippet(Pos(20)); s != "third" {
		t.Errorf("snippet = %q", s)
	}
}

func TestPositionString(t *testing.T) {
	p := Position{Filename: "a.mc", Line: 3, Column: 7}
	if p.String() != "a.mc:3:7" {
		t.Errorf("got %q", p.String())
	}
	if (Position{}).String() != "-" {
		t.Errorf("zero position prints %q", (Position{}).String())
	}
	if (Position{Filename: "f"}).String() != "f" {
		t.Error("filename-only position wrong")
	}
}

func TestErrorList(t *testing.T) {
	var l ErrorList
	if l.HasErrors() || l.Err() != nil {
		t.Error("empty list reports errors")
	}
	l.Warnf(Position{Filename: "a", Line: 2, Column: 1, Offset: 10}, "warn %d", 1)
	if l.HasErrors() {
		t.Error("warning counted as error")
	}
	l.Errorf(Position{Filename: "a", Line: 1, Column: 1, Offset: 0}, "boom")
	if !l.HasErrors() || l.Err() == nil {
		t.Error("error not reported")
	}
	l.Add(Position{Filename: "a", Line: 1, Column: 1, Offset: 0}, Note, "fyi")
	l.Sort()
	// After sorting, offset 0 entries come first, error before note at the
	// same offset (higher severity first).
	if l.Diags[0].Severity != Error {
		t.Errorf("sort order wrong: %v", l.Diags)
	}
	msg := l.Error()
	if !strings.Contains(msg, "boom") || !strings.Contains(msg, "warn 1") {
		t.Errorf("Error() = %q", msg)
	}
}

func TestErrorListTruncation(t *testing.T) {
	var l ErrorList
	for i := 0; i < 15; i++ {
		l.Errorf(Position{Filename: "f", Line: i + 1, Column: 1}, "e%d", i)
	}
	if msg := l.Error(); !strings.Contains(msg, "and 5 more") {
		t.Errorf("long list not truncated: %q", msg)
	}
	if l.Len() != 15 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestSeverityString(t *testing.T) {
	if Note.String() != "note" || Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity names wrong")
	}
	if !strings.Contains(Severity(9).String(), "9") {
		t.Error("unknown severity should embed the number")
	}
}

// TestLazyLineTableMatchesEager resolves every offset of the testdata
// programs, and one past the end, against positions counted from the start
// of the file: the table the first lookup builds is the one an eager scan
// built.
func TestLazyLineTableMatchesEager(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFile(path, src)
		line, col := 1, 1
		for off := 0; off <= len(src); off++ {
			if got, want := f.Position(Pos(off)), (Position{Filename: path, Line: line, Column: col, Offset: off}); got != want {
				t.Fatalf("%s offset %d: got %+v, want %+v", path, off, got, want)
			}
			col++
			if off < len(src) && src[off] == '\n' {
				line, col = line+1, 1
			}
		}
		if f.NumLines() != line {
			t.Errorf("%s: %d lines, want %d", path, f.NumLines(), line)
		}
	}
}

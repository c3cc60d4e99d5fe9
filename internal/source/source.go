// Package source provides source-file abstractions shared by every stage of
// the MiniC compiler: position tracking, human-readable location formatting,
// and structured diagnostics with severities.
//
// The design follows the usual compiler-frontend split: a File owns the raw
// bytes and a line-offset table, a Pos is a compact byte offset into one
// file, and a Position is the expanded (file, line, column) form used only
// when rendering messages.
package source

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Pos is a byte offset within a single source file. The zero value NoPos
// means "position unknown".
type Pos int

// NoPos is the unknown position.
const NoPos Pos = -1

// IsValid reports whether the position refers to an actual location.
func (p Pos) IsValid() bool { return p >= 0 }

// Position is a fully resolved source location, suitable for display.
type Position struct {
	Filename string
	Line     int // 1-based
	Column   int // 1-based, in bytes
	Offset   int // 0-based byte offset
}

// String renders the canonical "file:line:col" form. Missing parts are
// omitted so that a zero Position prints as "-".
func (p Position) String() string {
	s := p.Filename
	if p.Line > 0 {
		if s != "" {
			s += ":"
		}
		s += fmt.Sprintf("%d:%d", p.Line, p.Column)
	}
	if s == "" {
		s = "-"
	}
	return s
}

// File holds the contents of one source file together with the line table
// needed to resolve Pos values into Positions.
type File struct {
	Name    string
	Content []byte
	// lines is the byte offset of the start of each line, built by the
	// first call that needs it: only diagnostics resolve positions, and most
	// compiles report none.
	lines     []int
	linesOnce sync.Once
}

// NewFile builds a File. Its line table is built on the first NumLines,
// Position, Line or Snippet call, once; lookups after it allocate nothing.
func NewFile(name string, content []byte) *File {
	return &File{Name: name, Content: content}
}

// lineTable returns the line table, building it on the first call.
func (f *File) lineTable() []int {
	f.linesOnce.Do(func() {
		f.lines = make([]int, 1, 1+bytes.Count(f.Content, []byte{'\n'}))
		for i, b := range f.Content {
			if b == '\n' {
				f.lines = append(f.lines, i+1)
			}
		}
	})
	return f.lines
}

// Size returns the file length in bytes.
func (f *File) Size() int { return len(f.Content) }

// NumLines returns the number of lines in the file.
func (f *File) NumLines() int { return len(f.lineTable()) }

// Position expands a Pos into a Position. Out-of-range or invalid positions
// yield a Position with only the filename set.
func (f *File) Position(p Pos) Position {
	if !p.IsValid() || int(p) > len(f.Content) {
		return Position{Filename: f.Name}
	}
	// Binary search for the greatest line start <= p.
	lines := f.lineTable()
	i := sort.Search(len(lines), func(i int) bool { return lines[i] > int(p) }) - 1
	return Position{
		Filename: f.Name,
		Line:     i + 1,
		Column:   int(p) - lines[i] + 1,
		Offset:   int(p),
	}
}

// Line returns the 1-based line number for p, or 0 if invalid.
func (f *File) Line(p Pos) int {
	if !p.IsValid() {
		return 0
	}
	return f.Position(p).Line
}

// Snippet returns the text of the line containing p, used in diagnostics.
func (f *File) Snippet(p Pos) string {
	pos := f.Position(p)
	if pos.Line == 0 {
		return ""
	}
	start := f.lines[pos.Line-1]
	end := len(f.Content)
	if pos.Line < len(f.lines) {
		end = f.lines[pos.Line] - 1
	}
	return strings.TrimRight(string(f.Content[start:end]), "\r\n")
}

// Severity classifies a diagnostic.
type Severity int

// Severity levels, ordered by increasing seriousness.
const (
	Note Severity = iota
	Warning
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Note:
		return "note"
	case Warning:
		return "warning"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Diagnostic is a single compiler message anchored to a location.
type Diagnostic struct {
	Pos      Position
	Severity Severity
	Message  string
}

// String renders "file:line:col: severity: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Severity, d.Message)
}

// ErrorList accumulates diagnostics across compilation stages. The zero
// value is ready to use. It implements error so a stage can simply return
// the list when it is non-empty.
type ErrorList struct {
	Diags []Diagnostic
}

// Add appends a diagnostic.
func (l *ErrorList) Add(pos Position, sev Severity, format string, args ...any) {
	l.Diags = append(l.Diags, Diagnostic{Pos: pos, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Errorf appends an error-severity diagnostic.
func (l *ErrorList) Errorf(pos Position, format string, args ...any) {
	l.Add(pos, Error, format, args...)
}

// Warnf appends a warning-severity diagnostic.
func (l *ErrorList) Warnf(pos Position, format string, args ...any) {
	l.Add(pos, Warning, format, args...)
}

// HasErrors reports whether any diagnostic has Error severity.
func (l *ErrorList) HasErrors() bool {
	for _, d := range l.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Len returns the number of accumulated diagnostics.
func (l *ErrorList) Len() int { return len(l.Diags) }

// Sort orders diagnostics by file, then offset, then severity, giving
// deterministic output regardless of discovery order.
func (l *ErrorList) Sort() {
	sort.SliceStable(l.Diags, func(i, j int) bool {
		a, b := l.Diags[i], l.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Offset != b.Pos.Offset {
			return a.Pos.Offset < b.Pos.Offset
		}
		return a.Severity > b.Severity
	})
}

// Error implements the error interface: the first few messages joined by
// newlines, with a count of the remainder.
func (l *ErrorList) Error() string {
	const maxShown = 10
	if len(l.Diags) == 0 {
		return "no errors"
	}
	var sb strings.Builder
	for i, d := range l.Diags {
		if i == maxShown {
			fmt.Fprintf(&sb, "... and %d more", len(l.Diags)-maxShown)
			break
		}
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(d.String())
	}
	return sb.String()
}

// Err returns the list as an error if it contains errors, else nil.
func (l *ErrorList) Err() error {
	if l.HasErrors() {
		return l
	}
	return nil
}

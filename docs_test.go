package statefulcc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameWhatExists fails when markdown here mentions a cmd/<name> or
// internal/<name> that is not a directory in the tree, a "`make <target>`"
// that is not a .PHONY target, or a Test, Benchmark or Fuzz name that no
// func of a *_test.go in the tree (benchmark/ included) begins with: a -run
// pattern may name a group of tests by their common prefix. Planning and
// history files, the verbatim run listings and benchmark/ (frozen by
// BENCHMARK.json) may name what is gone.
func TestDocsNameWhatExists(t *testing.T) {
	skip := map[string]bool{
		"ROADMAP.md": true, "CHANGES.md": true, "ISSUE.md": true, "PAPER.md": true, "PAPERS.md": true,
		"SNIPPETS.md": true, filepath.Join("docs", "runs"): true, "benchmark": true, ".git": true,
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range regexp.MustCompile(`(?m)^\.PHONY:.*$`).FindAllString(string(mk), -1) {
		for _, name := range strings.Fields(line)[1:] {
			targets[name] = true
		}
	}
	var declared []string
	testDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == ".git":
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, m[1])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(declared)
	pkgRef := regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+`)
	makeRef := regexp.MustCompile("`make ([a-z][a-z-]*)")
	// Go runs Test, Benchmark and Fuzz funcs whose next rune is not a
	// lower-case letter, so "Testing" and "Benchmarks" are prose.
	testRef := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case skip[path] && d.IsDir():
			return fs.SkipDir
		case skip[path] || d.IsDir() || filepath.Ext(path) != ".md":
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, ref := range pkgRef.FindAllString(string(text), -1) {
			if st, err := os.Stat(ref); err != nil || !st.IsDir() {
				t.Errorf("%s mentions %s, which is not a directory in the tree", path, ref)
			}
		}
		for _, m := range makeRef.FindAllStringSubmatch(string(text), -1) {
			if !targets[m[1]] {
				t.Errorf("%s mentions `make %s`, which is not a .PHONY target of the Makefile", path, m[1])
			}
		}
		for _, name := range testRef.FindAllString(string(text), -1) {
			if i, _ := slices.BinarySearch(declared, name); i == len(declared) || !strings.HasPrefix(declared[i], name) {
				t.Errorf("%s mentions %s, which no func of a *_test.go in the tree begins with", path, name)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMakefileFuzzesEveryTarget fails when a fuzz target in a *_test.go file
// is not named in the Makefile: a target only `make chaos` bursts is
// explored beyond its seeds, so one missing from the Makefile never is.
func TestMakefileFuzzesEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	fuzzDecl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	if err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == ".git":
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzDecl.FindAllStringSubmatch(string(src), -1) {
			found++
			if !regexp.MustCompile(`\b` + m[1] + `\b`).Match(mk) {
				t.Errorf("%s declares %s, which the Makefile never fuzzes; add a burst to `make chaos`", path, m[1])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzz targets found; the walk is broken")
	}
}

// TestMakefileRunPatternsMatch fails when a `-run` pattern in the Makefile
// names a test that is not there: each of its alternatives must match a
// Test, Fuzz or Example func of the packages on the same command line. A
// pattern whose alternatives match nothing runs nothing and passes, so a
// renamed test drops out of its gate without a sound. '^$' (run no test,
// beside -fuzz or -bench) is the one pattern that may match nothing.
func TestMakefileRunPatternsMatch(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(mk), "\\\n", " ") // join continued lines
	text = strings.ReplaceAll(text, "$$", "$")
	runArg := regexp.MustCompile(`-run '([^']*)'|-run (\S+)`)
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		m := runArg.FindStringSubmatch(line)
		if m == nil || m[1]+m[2] == "^$" {
			continue
		}
		var funcs []string
		for _, field := range strings.Fields(line) {
			if !strings.HasPrefix(field, "./") {
				continue
			}
			dir, all := strings.CutSuffix(field, "/...")
			if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				switch {
				case err != nil:
					return err
				case d.IsDir() && path != dir && !all:
					return fs.SkipDir
				case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
					return nil
				}
				src, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				for _, f := range funcDecl.FindAllStringSubmatch(string(src), -1) {
					funcs = append(funcs, f[1])
				}
				return nil
			}); err != nil {
				t.Fatalf("Makefile line %q: %v", strings.TrimSpace(line), err)
			}
		}
		if len(funcs) == 0 {
			t.Errorf("Makefile line %q runs -run %q over no package with tests", strings.TrimSpace(line), m[1]+m[2])
			continue
		}
		for _, alt := range strings.Split(m[1]+m[2], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("Makefile -run alternative %q: %v", alt, err)
			}
			matched := false
			for _, f := range funcs {
				matched = matched || re.MatchString(f)
			}
			if !matched {
				t.Errorf("Makefile line %q: -run alternative %q matches no test of its packages", strings.TrimSpace(line), alt)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -run pattern found in the Makefile; the scan is broken")
	}
}

// TestCounterTableMatchesRegistry holds docs/OBSERVABILITY.md's counter
// table to the Ctr* constants of internal/obs/counters.go: every constant has
// a row, every name in the table is a constant, and a constant marked
// Deprecated is in a row whose meaning starts with "retired" (and only such
// a constant is).
func TestCounterTableMatchesRegistry(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "obs", "counters.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	deprecated := map[string]bool{} // counter name → marked Deprecated
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Ctr") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s is not a string literal", id.Name)
				}
				name, _ := strconv.Unquote(lit.Value)
				deprecated[name] = vs.Doc != nil && strings.Contains(vs.Doc.Text(), "Deprecated:")
			}
		}
	}
	if len(deprecated) == 0 {
		t.Fatal("no Ctr* constants found in internal/obs/counters.go")
	}

	doc, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	if i := strings.Index(section, "## Counter schema\n"); i >= 0 {
		section = section[i+len("## Counter schema\n"):]
	} else {
		t.Fatal(`docs/OBSERVABILITY.md has no "## Counter schema" section`)
	}
	if i := strings.Index(section, "\n## "); i >= 0 {
		section = section[:i]
	}
	name := regexp.MustCompile("`([a-z_]+\\.[a-z_.]+)`")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.Contains(cells[1], "`") {
			continue
		}
		retired := strings.HasPrefix(strings.TrimSpace(cells[2]), "retired")
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
			dep, isConst := deprecated[m[1]]
			switch {
			case !isConst:
				t.Errorf("docs/OBSERVABILITY.md's counter table has %s, which no Ctr* constant names", m[1])
			case dep && !retired:
				t.Errorf("%s is Deprecated in counters.go but its row does not say retired", m[1])
			case !dep && retired:
				t.Errorf("%s has a retired row but is not Deprecated in counters.go", m[1])
			}
		}
	}
	for n := range deprecated {
		if !documented[n] {
			t.Errorf("counter %s (internal/obs/counters.go) has no row in docs/OBSERVABILITY.md's counter table", n)
		}
	}
}

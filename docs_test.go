package statefulcc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists fails when markdown here mentions a cmd/<name> or
// internal/<name> that is not a directory in the tree, or a "`make <target>`"
// that is not a .PHONY target. Planning and history files, the verbatim run
// listings and benchmark/ (frozen by BENCHMARK.json) may name what is gone.
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
	pkgRef := regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+`)
	makeRef := regexp.MustCompile("`make ([a-z][a-z-]*)")
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
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

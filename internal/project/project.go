// Package project models multi-file MiniC projects: a Snapshot is the
// source tree of one build (unit name → contents), loadable from and
// writable to a directory. The workload generator produces Snapshots, the
// edit simulator mutates them, and the build system consumes them.
package project

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SourceSuffix is the MiniC file extension.
const SourceSuffix = ".mc"

// Snapshot is an immutable view of a project's sources at one build.
//
// A Builder's Build keeps a reference to each unit's bytes until the next
// build and compares them with what it is given then, so a unit whose bytes
// are equal is not hashed again. Never modify a slice after passing it to
// Build; Clone the snapshot first and edit the copy.
type Snapshot map[string][]byte

// Clone deep-copies the snapshot (edit simulation mutates copies).
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		c := make([]byte, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}

// Units returns the unit names in sorted order.
func (s Snapshot) Units() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalBytes sums the source sizes.
func (s Snapshot) TotalBytes() int {
	n := 0
	for _, v := range s {
		n += len(v)
	}
	return n
}

// Lines counts source lines across all units.
func (s Snapshot) Lines() int {
	n := 0
	for _, v := range s {
		n += strings.Count(string(v), "\n") + 1
	}
	return n
}

// Diff lists the unit names whose contents differ between two snapshots
// (added, removed, or changed), sorted.
func Diff(a, b Snapshot) []string {
	set := map[string]bool{}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || string(av) != string(bv) {
			set[k] = true
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LoadDir reads every *.mc file under dir (recursively) into a Snapshot,
// with unit names relative to dir using forward slashes.
func LoadDir(dir string) (Snapshot, error) {
	snap := make(Snapshot)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), SourceSuffix) {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		content, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		snap[filepath.ToSlash(rel)] = content
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("project: %w", err)
	}
	if len(snap) == 0 {
		return nil, fmt.Errorf("project: no %s files under %s", SourceSuffix, dir)
	}
	return snap, nil
}

// WriteDir materializes the snapshot under dir, creating directories as
// needed and removing stale .mc files that are not part of the snapshot.
func WriteDir(dir string, snap Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("project: %w", err)
	}
	// Remove stale units.
	existing, _ := LoadDir(dir)
	for name := range existing {
		if _, ok := snap[name]; !ok {
			_ = os.Remove(filepath.Join(dir, filepath.FromSlash(name)))
		}
	}
	for name, content := range snap {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return fmt.Errorf("project: %w", err)
		}
		if err := os.WriteFile(p, content, 0o644); err != nil {
			return fmt.Errorf("project: %w", err)
		}
	}
	return nil
}

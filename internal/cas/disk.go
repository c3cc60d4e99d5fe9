package cas

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"

	"statefulcc/internal/vfs"
)

// TempPattern matches the temp files DiskCAS writes before renaming, so
// sweeps (and the chaos canonicalizer) can treat them as invisible.
const TempPattern = ".cas-*"

// DiskCAS is the on-disk backend: a sharded content-addressed layout
//
//	<root>/objects/ab/abcdef…   blob bytes
//	<root>/actions/ab/abcdef…   action entry (32 hex digits of the blob key)
//
// under the vfs seam, with the repo's atomic write discipline (temp file in
// the destination shard, write, fsync, close, rename) so a crash at any
// point leaves either the old state or the new state, never a torn blob.
// Safe for concurrent use: content addressing makes concurrent writers of
// the same key write identical bytes, and rename is atomic.
type DiskCAS struct {
	root string
	fs   vfs.FS
}

// NewDiskCAS opens (or lays out on first write) a disk store rooted at dir.
// A nil fsys means the real filesystem.
func NewDiskCAS(dir string, fsys vfs.FS) *DiskCAS {
	return &DiskCAS{root: dir, fs: vfs.Default(fsys)}
}

func (d *DiskCAS) blobPath(key Key) string {
	return filepath.Join(d.root, "objects", key.Shard(), key.String())
}

func (d *DiskCAS) actionPath(action Key) string {
	return filepath.Join(d.root, "actions", action.Shard(), action.String())
}

// Get reads and verifies a blob. A blob whose bytes no longer hash to its
// key is deleted (self-heal — the key names exactly one byte string, so
// removing a mismatch can only remove corruption) and reported as
// ErrVerify.
func (d *DiskCAS) Get(key Key) ([]byte, error) {
	data, err := d.readFile(d.blobPath(key))
	if err != nil {
		if isNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	if Sum(data) != key {
		_ = d.fs.Remove(d.blobPath(key))
		return nil, fmt.Errorf("cas: disk blob %s: %w", key, ErrVerify)
	}
	return data, nil
}

// Put stores data under key with an atomic temp+fsync+rename write.
func (d *DiskCAS) Put(key Key, data []byte) error {
	if Sum(data) != key {
		return fmt.Errorf("cas: put %s: bytes hash to %s: %w", key, Sum(data), ErrVerify)
	}
	path := d.blobPath(key)
	if _, err := d.fs.Stat(path); err == nil {
		return nil // already stored; content addressing makes this a no-op
	}
	return d.writeAtomic(path, data)
}

// Has reports blob existence without reading it.
func (d *DiskCAS) Has(key Key) (bool, error) {
	_, err := d.fs.Stat(d.blobPath(key))
	if err == nil {
		return true, nil
	}
	if isNotExist(err) {
		return false, nil
	}
	return false, err
}

// Delete removes a blob; absent blobs are not an error.
func (d *DiskCAS) Delete(key Key) error {
	err := d.fs.Remove(d.blobPath(key))
	if err != nil && !isNotExist(err) {
		return err
	}
	return nil
}

// ActionGet resolves an action entry. Entries are 32 hex digits; anything
// else on disk is a poisoned entry — removed and reported as ErrVerify.
func (d *DiskCAS) ActionGet(action Key) (Key, error) {
	data, err := d.readFile(d.actionPath(action))
	if err != nil {
		if isNotExist(err) {
			return Key{}, ErrNotFound
		}
		return Key{}, err
	}
	blob, perr := ParseKey(strings.TrimSpace(string(data)))
	if perr != nil {
		_ = d.fs.Remove(d.actionPath(action))
		return Key{}, fmt.Errorf("cas: disk action %s: %v: %w", action, perr, ErrVerify)
	}
	return blob, nil
}

// ActionPut records action → blob atomically. Last writer wins.
func (d *DiskCAS) ActionPut(action, blob Key) error {
	return d.writeAtomic(d.actionPath(action), []byte(blob.String()+"\n"))
}

func (d *DiskCAS) readFile(path string) ([]byte, error) {
	f, err := d.fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	return data, nil
}

// writeAtomic is the store's one write path: mkdir the shard, write a temp
// file next to the destination, fsync, close, rename. Any failure removes
// the temp (best effort) and leaves the destination untouched.
func (d *DiskCAS) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := d.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := d.fs.CreateTemp(dir, TempPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		_ = d.fs.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := d.fs.Rename(tmpName, path); err != nil {
		return cleanup(err)
	}
	return nil
}

// SweepTemp removes the temp files crashed writers left in the objects
// and actions shards. Best effort; returns the number removed. cas.Server
// runs it at startup so a crash mid-publish cannot accumulate temp files
// unbounded.
func (d *DiskCAS) SweepTemp() int {
	removed := 0
	for _, ns := range []string{"objects", "actions"} {
		d.eachShardFile(ns, func(dir, name string) {
			if ok, _ := filepath.Match(TempPattern, name); ok && d.fs.Remove(filepath.Join(dir, name)) == nil {
				removed++
			}
		})
	}
	return removed
}

// eachShardFile calls fn for every file in the shard directories of
// namespace ns (<root>/<ns>/<shard>/<name>).
func (d *DiskCAS) eachShardFile(ns string, fn func(dir, name string)) {
	nsDir := filepath.Join(d.root, ns)
	shards, err := d.fs.ReadDir(nsDir)
	if err != nil {
		return
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		dir := filepath.Join(nsDir, sh.Name())
		entries, err := d.fs.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() {
				fn(dir, e.Name())
			}
		}
	}
}

// BlobSize stats a blob (ErrNotFound when absent): the startup scan's
// size of a stored blob.
func (d *DiskCAS) BlobSize(key Key) (int64, error) {
	info, err := d.fs.Stat(d.blobPath(key))
	if err != nil {
		if isNotExist(err) {
			return 0, ErrNotFound
		}
		return 0, err
	}
	return info.Size(), nil
}

// BlobKeys lists every stored blob key: the startup scan. A file whose
// name is not a key (a temp file, anything else) is not a blob.
func (d *DiskCAS) BlobKeys() []Key {
	var keys []Key
	d.eachShardFile("objects", func(_, name string) {
		if key, err := ParseKey(name); err == nil {
			keys = append(keys, key)
		}
	})
	return keys
}

func isNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist)
}

package history

// Reading a history from its end: a command that shows the newest build, or
// the newest few, decodes those records only, and an append decodes one — the
// last line of the active segment, whose Seq it continues.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"statefulcc/internal/vfs"
)

// tailChunk is how much of a file is read at a time, from its end towards its
// start: the end of a file whose last line is shorter is read with one, and a
// line of any length with no more than its own length and one chunk.
const tailChunk = 64 * 1024

// backward yields a file's lines from the last to the first.
type backward struct {
	f    vfs.File
	size int64 // of the file when it was opened
	off  int64 // file offset of buf[lo]
	// buf[lo:hi] is the part of the file that has been read and not yet
	// returned; what is read next goes in front of it. buf[fresh:hi] is known
	// to hold no newline, so a long line is searched once, not once per chunk.
	buf           []byte
	lo, hi, fresh int
}

func newBackward(f vfs.File) (*backward, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	return &backward{f: f, size: size, off: size}, nil
}

// next returns the line before those returned so far, without its newline,
// and whether a line precedes it in the file. The first line returned is
// what follows the file's last newline: empty when the file ends in one.
// After a line of maxLineBytes or more it reports no further line. The line
// is valid until the next call.
func (b *backward) next() (line []byte, more bool, err error) {
	for {
		if nl := bytes.LastIndexByte(b.buf[b.lo:b.fresh], '\n'); nl >= 0 {
			line, b.hi = b.buf[b.lo+nl+1:b.hi], b.lo+nl
			b.fresh = b.hi
			return line, true, nil
		}
		if b.off == 0 || b.hi-b.lo >= maxLineBytes {
			line, b.hi = b.buf[b.lo:b.hi], b.lo
			return line, false, nil
		}
		if err := b.fill(); err != nil {
			return nil, false, err
		}
	}
}

// fill reads the chunk of the file that ends where buf[lo:hi] starts.
func (b *backward) fill() error {
	n := int(min(tailChunk, b.off))
	if _, err := b.f.Seek(b.off-int64(n), io.SeekStart); err != nil {
		return err
	}
	if b.off == b.size {
		// The file's last chunk is read up to where the file ends now, not
		// where it ended when it was opened: a line that was being written
		// then is whole if it has landed since.
		data, err := readToEOF(b.f, make([]byte, 0, n+512))
		if err != nil {
			return err
		}
		if len(data) < n {
			return fmt.Errorf("%s has lost %d bytes since it was opened", b.f.Name(), n-len(data))
		}
		b.buf, b.lo, b.hi, b.fresh = data, 0, len(data), len(data)
	} else {
		if held := b.hi - b.lo; b.lo < n {
			// Room in front: the buffer's own when what is held fits beside
			// a chunk (a whole file is read through one buffer), or a new one,
			// doubled each time so that a long line is not copied once per
			// chunk.
			buf := b.buf
			if len(buf) < n+held {
				buf = make([]byte, n+2*held)
			}
			copy(buf[len(buf)-held:], b.buf[b.lo:b.hi])
			b.buf, b.lo, b.hi = buf, len(buf)-held, len(buf)
		}
		if _, err := io.ReadFull(b.f, b.buf[b.lo-n:b.lo]); err != nil {
			return err
		}
		b.lo, b.fresh = b.lo-n, b.lo
	}
	b.off -= int64(n)
	return nil
}

// LoadLast returns the newest n records of the history whose active segment
// is at path, oldest first — the last n of what Load returns, on every file
// (torn tail, corrupt or blank lines in the middle, a missing file, a line
// too long to read) — having read only the end of the active segment, and of
// the older one when the active one holds fewer than n, and decoded only the
// lines it walked over to find n that parse. n <= 0 means every record and is
// Load.
func LoadLast(path string, n int) ([]Record, error) {
	if n <= 0 {
		n = math.MaxInt
	}
	return load(vfs.OS, path, n)
}

// load returns the newest n records of the history whose active segment is at
// path: the active segment's and then the older one's, each read from its
// end. It reads both again (twice at most) if the segments were rotated
// meanwhile: a reader that has the active segment and then opens the older
// one after a rotation reads the same records twice and misses the new active
// segment. A rotation shows as another file under the older segment's name.
func load(fsys vfs.FS, path string, n int) ([]Record, error) {
	older := OlderPath(path)
	for attempt := 1; ; attempt++ {
		before, _ := fsys.Stat(older)
		recs, err := loadLast(fsys, []string{path, older}, n)
		after, _ := fsys.Stat(older)
		same := before == nil && after == nil || before != nil && after != nil && os.SameFile(before, after)
		if err != nil || same || attempt == 3 {
			return recs, err
		}
	}
}

// loadLast returns the newest n records of the files at paths, which are
// given newest first.
func loadLast(fsys vfs.FS, paths []string, n int) ([]Record, error) {
	var recs []Record // newest first
	for _, path := range paths {
		if err := segmentLast(fsys, path, n, &recs); err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
	}
	slices.Reverse(recs)
	return recs, nil
}

// segmentLast appends to recs, newest first, the newest records of one
// segment until recs holds n.
func segmentLast(fsys vfs.FS, path string, n int, recs *[]Record) error {
	if len(*recs) >= n {
		return nil
	}
	f, err := fsys.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	lines, err := newBackward(f)
	if err != nil {
		return err
	}
	for more := true; more && len(*recs) < n; {
		var line []byte
		if line, more, err = lines.next(); err != nil {
			return err
		}
		if rec, ok := decodeLine(line); ok {
			*recs = append(*recs, rec)
		}
	}
	return nil
}

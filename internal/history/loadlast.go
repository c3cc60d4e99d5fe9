package history

// The readers' side of "a record is sized by the work the build did": a
// command that shows the newest build, or the newest few, reads the file from
// its end and decodes those records only. An append still decodes every line
// (that is its validity check); a reader has no reason to.

import (
	"bytes"
	"fmt"
	"os"
	"slices"
)

// tailChunk is the first read LoadLast makes from the end of the file; each
// further read doubles, so a record of any size costs O(log) reads.
const tailChunk = 64 * 1024

// LoadLast returns the newest n records of the history file at path, oldest
// first — the last n of what Load returns, for every file Load can read
// (torn tail, corrupt or blank lines in the middle, a missing file) — having
// read only the end of the file and decoded only the lines it walked over
// to find n that parse. n <= 0 means every record and is Load.
//
// One difference from Load, on a file neither can read whole: at a line of
// maxLineBytes or more Load stops and has the records before it, LoadLast
// stops and has the records after it.
func LoadLast(path string, n int) ([]Record, error) {
	if n <= 0 {
		return Load(path)
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}

	var (
		recs  []Record    // newest first
		buf   []byte      // the file from off up to the lines already walked
		off   = fi.Size() // an append after this point is the next reader's
		chunk = int64(tailChunk)
	)
	for len(recs) < n {
		nl := bytes.LastIndexByte(buf, '\n')
		if nl < 0 && off > 0 {
			// The line buf ends with starts before buf does.
			if len(buf) >= maxLineBytes {
				break
			}
			read := min(chunk, off)
			grown := make([]byte, read+int64(len(buf)))
			if _, err := f.ReadAt(grown[:read], off-read); err != nil {
				return nil, fmt.Errorf("history: %w", err)
			}
			copy(grown[read:], buf)
			buf, off, chunk = grown, off-read, 2*chunk
			continue
		}
		if rec, ok := decodeLine(buf[nl+1:]); ok {
			recs = append(recs, rec)
		}
		if nl < 0 {
			break // that was the file's first line
		}
		buf = buf[:nl]
	}
	slices.Reverse(recs)
	return recs, nil
}

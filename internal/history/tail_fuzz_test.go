package history

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"statefulcc/internal/vfs"
)

// FuzzHistoryTail holds what an append learns from the end of a file — any
// file: a crashed writer, another version or a disk can have left it — to a
// reference that reads the whole file. The reader never panics, never reports
// a Seq from a line that does not decode or does not end, and never reads
// more than the line it has to decode and one chunk: the FaultFS under it
// counts the bytes. The file is prefix, filler without a newline and suffix;
// pad says how much filler: up to 249 KiB, or, so that a line around the
// 16 MB bound is a small input and a rare one, the bound less a KiB, the
// bound, and a KiB and a MiB more.
func FuzzHistoryTail(f *testing.F) {
	rec := testRecord(50, 1000)
	rec.Seq = 41
	line, err := rec.Encode()
	if err != nil {
		f.Fatal(err)
	}
	line = append(line, '\n')
	other := bytes.Replace(line, []byte(`"seq":41`), []byte(`"seq":40`), 1)
	f.Add([]byte(nil), uint16(0), []byte(nil))
	f.Add([]byte("no newline at all"), uint16(0), []byte(nil))
	f.Add([]byte("\n\n\n\n"), uint16(0), []byte("\n"))
	f.Add(other, uint16(16*1024), line)            // a 16 MB line, then a record
	f.Add(other, uint16(16*1024), []byte("}\n"))   // a 16 MB line last
	f.Add(other, uint16(100), line)                // a line longer than a chunk, then a record
	f.Add(other, uint16(0), bytes.Repeat(line, 3)) // whole records
	f.Add(line, uint16(0), []byte("{not json}\n"))
	f.Add(line, uint16(0), []byte("42\n"))
	for cut := 0; cut <= len(line); cut++ { // a valid record cut at every offset
		f.Add(other, uint16(0), line[:cut])
	}
	f.Add(other, uint16(17*1024), line) // a line a MiB past the bound, then a record

	f.Fuzz(func(t *testing.T, prefix []byte, padKiB uint16, suffix []byte) {
		data := append(bytes.Clone(prefix), bytes.Repeat([]byte{'x'}, int(padKiB)%(17*1024+1)<<10)...)
		data = append(data, suffix...)
		path := filepath.Join(t.TempDir(), FileName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// The reference: the text after the last newline, and the line before
		// it.
		rest := data[bytes.LastIndexByte(data, '\n')+1:]
		var last []byte
		if body := data[:len(data)-len(rest)]; len(body) > 0 {
			last = body[bytes.LastIndexByte(body[:len(body)-1], '\n')+1 : len(body)-1]
		}
		decodes := func(text []byte) (seq int, ok bool) {
			var r Record
			ok = len(text) < maxLineBytes && json.Unmarshal(text, &r) == nil
			return r.Seq, ok
		}
		want := segmentEnd{size: int64(len(data)), whole: len(data) == 0}
		looked := len(rest) // the bytes the reader cannot do without
		if len(rest) > 0 {
			seq, ok := decodes(rest)
			want.seq, want.torn = seq, !ok
		} else if len(data) > 0 {
			want.seq, want.whole = decodes(last)
			looked = len(last) + 1
		}

		fsys := vfs.NewFaultFS(vfs.OS)
		got, err := readEnd(fsys, path)
		if err != nil {
			t.Fatalf("readEnd: %v", err)
		}
		if got.file == nil || got.size != want.size || got.whole != want.whole || got.torn != want.torn ||
			(want.whole || len(rest) > 0) && got.seq != want.seq {
			t.Fatalf("readEnd of %d bytes: size %d whole %v seq %d torn %v; the whole file says size %d whole %v seq %d torn %v",
				len(data), got.size, got.whole, got.seq, got.torn, want.size, want.whole, want.seq, want.torn)
		}
		if read, most := fsys.BytesRead(path), int64(min(looked, maxLineBytes)+tailChunk); read > most || read > int64(len(data)) {
			t.Fatalf("readEnd read %d bytes of %d to decode a last line of %d: want at most that line and one chunk (%d)",
				read, len(data), looked, most)
		}

		// And the append that follows keeps every record a reader had, as the
		// newest before its own, unless it would have to wait for a writer
		// that may be alive (a torn tail: eleven milliseconds an input). A
		// reader stops at a line too long to read, and has the records after
		// it only; the repair that drops the line gives the records before it
		// back.
		if got.torn {
			return
		}
		before, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		added := testRecord(1, 1)
		if err := Append(path, added, 3); err != nil {
			t.Fatalf("Append: %v", err)
		}
		after, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		kept := len(after) - 1 - len(before)
		if kept < 0 || after[len(after)-1].Seq != added.Seq || (len(before) > 0 && added.Seq != before[len(before)-1].Seq+1) ||
			!slices.EqualFunc(after[kept:len(after)-1], before, func(a, b Record) bool { return a.Seq == b.Seq }) {
			t.Fatalf("%d records before the append, %d after; new Seq %d", len(before), len(after), added.Seq)
		}
	})
}

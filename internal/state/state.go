// Package state persists the stateful compiler's dormancy records to disk.
//
// The format is a compact little-endian binary layout with a magic, version
// and checksum header. A save first reads the state file back and writes
// nothing if it already holds the new encoding. Otherwise it writes the
// file in place, creating it if missing: one write path, no temp file and
// no rename.
//
// A state file only has to be valid or detectably invalid, never durable or
// atomic. Any valid file is sound, whichever build wrote it, because every
// skip re-checks the slot's input fingerprint (docs/STATEFULNESS.md §3); a
// file that is missing, stale, of another version or damaged makes its unit
// run cold, which is always safe because the records are a pure
// optimization. So a save never fsyncs and never renames. A save that fails
// or crashes part way, or a power loss after it, leaves a prefix of the new
// bytes over the old ones (over nothing, for a file it created), an old
// tail that was never cut, zeros or flipped bits; the header's CRC-32C over
// every byte after it, up to the end of the file, makes each of those read
// back as old, new, or rejected: the old encoding, the new one, or a
// failed load, and the unit costs one cold compile: degraded never means
// worse than cold. That guarantee is proven, not asserted: all I/O goes
// through the internal/vfs seam (SaveFS/LoadFS), and the chaos suites walk
// every injectable fault point, the power loss after each written file's
// close included (docs/ROBUSTNESS.md).
//
// Layout. There is one layout and one decoder. Two observations keep the
// state tiny, mirroring the paper's pitch:
//
//   - only *dormant* records can ever satisfy a skip, so records of active
//     passes need no fingerprint at all — just a flags byte; and
//
//   - a run of consecutive dormant passes shares one input fingerprint, so
//     the dormant hashes are stored once in a small distinct-hash table and
//     referenced by varint index.
//
// A record is nothing else: a state file is a function of the source and
// the pipeline alone, so a rebuild whose decisions did not change finds
// its bytes already on disk.
//
//	magic "SCCS" | u32 version | u32 CRC-32C(bytes[12:]) |
//	u64 pipelineHash | string unit
//	quarantineBlock
//	u32 recLen | recordBlock(module slots)
//	u32 nFuncs | nFuncs × ( string name, u32 recLen, recordBlock(slots) )
//	footprintBlock
//
//	quarantineBlock: u8 present [, string reason, uvarint clean,
//	                 uvarint nPasses, nPasses × string ]
//
//	footprintBlock: u8 present [, u32 len, footprint binary encoding
//	                (internal/footprint, self-versioned canonical codec) ]
//
//	recordBlock: uvarint nSlots | uvarint nHashes | nHashes × u64 |
//	             nSlots × ( u8 flags [, uvarint hashIdx] )
//
// flags: bit0 = changed, bit1 = seen. hashIdx follows only for seen
// dormant (changed=0) slots. The checksum is CRC-32C (Castagnoli), which
// detects every burst of up to 32 bits and which Go computes in hardware
// on amd64 and arm64; the decoder checks it before it parses a byte of the
// body.
//
// The layout is zero-copy: the loader reads the whole file into one buffer
// and DecodeBytes slices it in place — strings (unit name, function names,
// quarantine reasons) are *references into the buffer* (unsafe.String),
// never copies, and every record block carries a u32 byte length so a
// reader can locate any function's records without parsing the ones before
// it. The returned UnitState therefore aliases the input buffer; callers
// must not mutate it (LoadFS always hands DecodeBytes a fresh private
// buffer). The optional dependency-footprint block (the always-correct-mode
// ground truth, internal/footprint) follows the function table; its entry
// names are private copies, not views.
//
// A file of any other version is not migrated: DecodeBytes rejects it as an
// unsupported version, the build runs that unit cold, and the next save
// overwrites the file in the current layout — the paper's rule that state
// is thrown away whenever the compiler changes. Files of v7 and before
// begin with the 8-byte magic "SCCSTATE" and their version after it; the
// decoder reports that version.
package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"statefulcc/internal/core"
	"statefulcc/internal/footprint"
	"statefulcc/internal/vfs"
)

var magic = [4]byte{'S', 'C', 'C', 'S'}

// olderMagic began every file of layout v7 and before, and their u32
// version followed it.
var olderMagic = []byte("SCCSTATE")

// headerLen is the size of the header: magic, version, checksum.
const headerLen = 12

// castagnoli is the CRC-32C table the header's checksum is computed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FormatVersion is the on-disk layout version the encoder writes and the
// only one the decoder accepts.
const FormatVersion = 8

// Save is SaveFS on the real filesystem.
func Save(path string, st *core.UnitState) error {
	return SaveFS(vfs.OS, path, st)
}

// SaveFS persists the unit state at path through fsys (nil means the real
// filesystem), writing only if the bytes on disk differ: see WriteChangedFS,
// which additionally reports whether a write happened.
func SaveFS(fsys vfs.FS, path string, st *core.UnitState) error {
	_, err := SaveChangedFS(fsys, path, st)
	return err
}

// SaveChangedFS is WriteChangedFS of the state's encoding.
func SaveChangedFS(fsys vfs.FS, path string, st *core.UnitState) (wrote bool, err error) {
	return WriteChangedFS(fsys, path, Marshal(st))
}

// WriteChangedFS is the write-if-changed save of an encoding Marshal
// returned. The encoding is compared with the bytes currently at path, read
// through a read-only handle; if the file reads back fully and equal,
// nothing is written and wrote is false, so an unchanged save never opens
// the file for writing. Otherwise the file is written in place, whether or
// not it exists: OpenFile(O_WRONLY|O_CREATE), Write, Truncate to the
// encoding's length, Close — after a MkdirAll of the directory when the
// compare found no file. There is one write path: no O_TRUNC, no temp file,
// no rename and no fsync.
//
// A save that fails or crashes part way, or a power loss after it, can
// leave a prefix of the new bytes over the old ones (or, for a file it
// created, an empty or short file), an old tail the Truncate never cut,
// zeros or flipped bits. The header's checksum covers every byte after it
// up to the end of the file, so each of those reads back as the old
// encoding, the new one, or a file DecodeBytes rejects — and a unit whose
// state fails to load runs cold, which is always correct. The same holds
// for a reader in another process that races a write: it may find the file
// mid-write and reject it. Two processes saving one file at once leave one
// process's encoding or a rejected file: the Truncate is unconditional, so
// a save never keeps a tail another process wrote.
//
// The compare is against the disk rather than against bytes remembered at
// load time, so callers keep no per-unit memory and a file deleted or
// replaced behind the process's back is rewritten by the next save.
func WriteChangedFS(fsys vfs.FS, path string, enc []byte) (wrote bool, err error) {
	fsys = vfs.Default(fsys)
	found, equal := compareOnDisk(fsys, path, enc)
	if equal {
		return false, nil
	}
	if !found {
		err = fsys.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = writeInPlace(fsys, path, enc)
	}
	if err != nil {
		return false, fmt.Errorf("state: %w", err)
	}
	return true, nil
}

// compareOnDisk reads the file at path back against enc. found reports
// that it opened, and equal that it holds exactly enc. Any failure to
// establish equality reads as "differs", which only costs a write.
func compareOnDisk(fsys vfs.FS, path string, enc []byte) (found, equal bool) {
	f, err := fsys.Open(path)
	if err != nil {
		return false, false
	}
	// One spare byte, so a longer file cannot equal its own prefix and an
	// equal file ends the read with io.ErrUnexpectedEOF.
	got := make([]byte, len(enc)+1)
	n, rerr := io.ReadFull(f, got)
	cerr := f.Close()
	return true, rerr == io.ErrUnexpectedEOF && cerr == nil && bytes.Equal(got[:n], enc)
}

// writeInPlace writes enc at offset 0 of the file at path, creating it if
// missing, and cuts whatever tail is left.
func writeInPlace(fsys vfs.FS, path string, enc []byte) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(enc)
	if err == nil {
		err = f.Truncate(int64(len(enc)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads a unit state from the real filesystem; a missing file
// returns (nil, nil) and any malformed file returns an error the caller
// should treat as "run cold".
func Load(path string) (*core.UnitState, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS is Load through an injectable filesystem (nil means the real
// one). The whole file is read into one private buffer and decoded in
// place. Going through fsys.Open/Read (rather than mmap) keeps every byte of
// the load path under the fault-injection seam.
func LoadFS(fsys vfs.FS, path string) (*core.UnitState, error) {
	f, err := vfs.Default(fsys).Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	defer f.Close()
	buf, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return DecodeBytes(buf)
}

// Encode writes the state in the current binary format: Marshal's bytes.
func Encode(w io.Writer, st *core.UnitState) error {
	_, err := w.Write(Marshal(st))
	return err
}

// Marshal returns the state's encoding. Functions are written in name
// order so the output is deterministic; the header's checksum is stamped
// once the body is complete.
func Marshal(st *core.UnitState) []byte {
	e := &encoder{b: make([]byte, headerLen, 512)}
	copy(e.b, magic[:])
	binary.LittleEndian.PutUint32(e.b[4:8], FormatVersion)
	e.u64(st.PipelineHash)
	e.str(st.Unit)

	e.quarantineBlock(st.Quarantine)

	// Record blocks are length-prefixed so a reader can slice its way
	// to any function without parsing the blocks before it.
	e.sizedRecordBlock(st.ModuleSlots, st.ModuleSeen)

	names := make([]string, 0, len(st.Funcs))
	for name := range st.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, name := range names {
		fs := st.Funcs[name]
		e.str(name)
		e.sizedRecordBlock(fs.Slots, fs.Seen)
	}
	e.footprintBlock(st.Footprint)
	binary.LittleEndian.PutUint32(e.b[8:12], crc32.Checksum(e.b[headerLen:], castagnoli))
	return e.b
}

// footprintBlock writes the optional dependency footprint as a
// length-prefixed embedding of the footprint package's own canonical
// encoding.
func (e *encoder) footprintBlock(fp *footprint.Record) {
	if fp == nil {
		e.byte(0)
		return
	}
	e.byte(1)
	at := e.reserveLen()
	e.b = fp.AppendBinary(e.b)
	e.patchLen(at)
}

func (d *bdec) footprintBlock() *footprint.Record {
	fb := d.byte()
	if d.err != nil || fb == 0 {
		return nil
	}
	if fb != 1 {
		d.err = fmt.Errorf("bad footprint marker %d", fb)
		return nil
	}
	n := d.u32()
	b := d.take(int(n))
	if d.err != nil {
		return nil
	}
	fp, err := footprint.DecodeBinary(b)
	if err != nil {
		d.err = err
		return nil
	}
	return fp
}

// sizedRecordBlock writes a u32 byte-length prefix followed by the record
// block.
func (e *encoder) sizedRecordBlock(slots []core.Record, seen []bool) {
	at := e.reserveLen()
	e.recordBlock(slots, seen)
	e.patchLen(at)
}

// quarantineBlock writes the optional quarantine marker.
func (e *encoder) quarantineBlock(q *core.Quarantine) {
	if q == nil {
		e.byte(0)
		return
	}
	e.byte(1)
	e.str(q.Reason)
	e.uv(uint64(q.Clean))
	e.uv(uint64(len(q.Passes)))
	for _, p := range q.Passes {
		e.str(p)
	}
}

// recordBlock writes slot records with the distinct-hash table compression.
// Only seen dormant records carry a hash.
func (e *encoder) recordBlock(slots []core.Record, seen []bool) {
	e.uv(uint64(len(slots)))
	var hashes []uint64
	idx := make(map[uint64]int)
	for i, r := range slots {
		if !seen[i] || r.Changed {
			continue
		}
		if _, ok := idx[r.InputHash]; !ok {
			idx[r.InputHash] = len(hashes)
			hashes = append(hashes, r.InputHash)
		}
	}
	e.uv(uint64(len(hashes)))
	for _, h := range hashes {
		e.u64(h)
	}
	for i, r := range slots {
		var flags byte
		if r.Changed {
			flags |= 1
		}
		if seen[i] {
			flags |= 2
		}
		e.byte(flags)
		if seen[i] && !r.Changed {
			e.uv(uint64(idx[r.InputHash]))
		}
	}
}

// Decode parses the binary format. The reader is drained into one buffer
// and handed to DecodeBytes.
func Decode(r io.Reader) (*core.UnitState, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return DecodeBytes(buf)
}

// DecodeBytes parses a state file held in memory. The decode is zero-copy:
// all strings in the returned state are unsafe.String views into buf, so
// the caller must not mutate buf for the lifetime of the state. Record
// blocks are located via their length prefixes, and every declared length
// is checked against the bytes actually present before use, so no count in
// the file can force an allocation or an out-of-range slice.
func DecodeBytes(buf []byte) (*core.UnitState, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("state: %w", io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(buf[:4], magic[:]) {
		return nil, fmt.Errorf("state: bad magic")
	}
	if bytes.HasPrefix(buf, olderMagic) {
		return nil, fmt.Errorf("state: unsupported version %d", binary.LittleEndian.Uint32(buf[8:12]))
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("state: unsupported version %d", v)
	}
	if sum := crc32.Checksum(buf[headerLen:], castagnoli); sum != binary.LittleEndian.Uint32(buf[8:12]) {
		return nil, fmt.Errorf("state: checksum mismatch")
	}
	d := &bdec{buf: buf, off: headerLen}
	st := &core.UnitState{Funcs: make(map[string]*core.FuncState)}
	st.PipelineHash = d.u64()
	st.Unit = d.str()

	st.Quarantine = d.quarantineBlock()
	st.ModuleSlots, st.ModuleSeen = d.sizedRecordBlock()

	nFuncs := d.u32()
	if d.err == nil && uint64(nFuncs) > uint64(len(buf)) {
		// Each function costs at least one byte; anything larger is a lie.
		d.err = fmt.Errorf("implausible function count %d", nFuncs)
	}
	for i := uint32(0); i < nFuncs && d.err == nil; i++ {
		name := d.str()
		slots, seen := d.sizedRecordBlock()
		if d.err != nil {
			break
		}
		st.Funcs[name] = &core.FuncState{Slots: slots, Seen: seen}
	}
	st.Footprint = d.footprintBlock()
	if d.err == nil && d.off != len(buf) {
		d.err = fmt.Errorf("%d trailing bytes", len(buf)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("state: %w", d.err)
	}
	return st, nil
}

// bdec is the only parser of state bytes: an offset cursor over the file
// buffer with zero-copy strings and length-prefixed block slicing.
type bdec struct {
	buf []byte
	off int
	err error
}

func (d *bdec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *bdec) u32() uint32 {
	b := d.take(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *bdec) u64() uint64 {
	b := d.take(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *bdec) byte() byte {
	b := d.take(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

func (d *bdec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	d.off += n
	return v
}

// str returns a string aliasing the buffer — the zero-copy read. Length
// is validated against the remaining bytes, so no allocation ever happens
// here regardless of what the file declares.
func (d *bdec) str() string {
	n := d.u32()
	b := d.take(int(n))
	if d.err != nil || n == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// sizedRecordBlock slices a length-prefixed record block out of the
// buffer and parses it. The parse must consume the block exactly — a
// mismatch means a corrupt or non-canonical file.
func (d *bdec) sizedRecordBlock() ([]core.Record, []bool) {
	n := d.u32()
	b := d.take(int(n))
	if d.err != nil {
		return nil, nil
	}
	sub := &bdec{buf: b}
	slots, seen := sub.recordBlock()
	if sub.err != nil {
		d.err = sub.err
		return nil, nil
	}
	if sub.off != len(b) {
		d.err = fmt.Errorf("record block length %d does not match content (%d parsed)", n, sub.off)
		return nil, nil
	}
	return slots, seen
}

func (d *bdec) quarantineBlock() *core.Quarantine {
	fb := d.byte()
	if d.err != nil || fb == 0 {
		return nil
	}
	if fb != 1 {
		d.err = fmt.Errorf("bad quarantine marker %d", fb)
		return nil
	}
	q := &core.Quarantine{Reason: d.str()}
	q.Clean = int(d.uv())
	n := d.uv()
	if d.err == nil && n > 1<<12 {
		d.err = fmt.Errorf("implausible quarantined-pass count %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		q.Passes = append(q.Passes, d.str())
	}
	if d.err != nil {
		return nil
	}
	return q
}

func (d *bdec) recordBlock() ([]core.Record, []bool) {
	n := d.uv()
	if d.err == nil && n > 1<<16 {
		d.err = fmt.Errorf("implausible slot count %d", n)
	}
	if d.err != nil {
		return nil, nil
	}
	nHashes := d.uv()
	if d.err == nil && nHashes > n {
		d.err = fmt.Errorf("hash table larger than slot count")
	}
	// With the whole block in hand the declared counts are validated
	// against the bytes present before anything is allocated: exact-size
	// slices, no growth heuristics needed.
	rem := uint64(len(d.buf) - d.off)
	if d.err == nil && nHashes*8 > rem {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err == nil && n > rem-nHashes*8 {
		// Each slot costs at least its flags byte.
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil, nil
	}
	hashes := make([]uint64, nHashes)
	for i := range hashes {
		hashes[i] = d.u64()
	}
	if d.err != nil {
		return nil, nil
	}
	slots := make([]core.Record, 0, n)
	seen := make([]bool, 0, n)
	for i := uint64(0); i < n; i++ {
		fb := d.byte()
		if d.err != nil {
			return nil, nil
		}
		var r core.Record
		r.Changed = fb&1 != 0
		sn := fb&2 != 0
		if sn && !r.Changed {
			hi := d.uv()
			if d.err == nil && hi >= uint64(len(hashes)) {
				d.err = fmt.Errorf("hash index out of range")
			}
			if d.err != nil {
				return nil, nil
			}
			r.InputHash = hashes[hi]
		}
		slots = append(slots, r)
		seen = append(seen, sn)
	}
	return slots, seen
}

// FileSize reports the serialized size of a state value, used by the
// benchmark's state rows and cmd/statedump. It never fails.
func FileSize(st *core.UnitState) (int, error) {
	return len(Marshal(st)), nil
}

// --- low-level encoding -------------------------------------------------------

// encoder appends the encoding to b.
type encoder struct{ b []byte }

func (e *encoder) byte(c byte) { e.b = append(e.b, c) }

func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

func (e *encoder) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) uv(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// reserveLen appends a u32 length placeholder and returns its offset.
func (e *encoder) reserveLen() int {
	e.u32(0)
	return len(e.b) - 4
}

// patchLen fills the placeholder at offset at with the number of bytes
// written after it.
func (e *encoder) patchLen(at int) {
	binary.LittleEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4))
}

// Package history is the build flight recorder: one structured JSONL
// record per Builder.Build call, appended to the state directory, so the
// questions the in-process observability layer cannot answer after exit —
// "why did pass X run this time when it was skipped last time?", "did the
// skip rate regress over the last N builds?" — stay answerable across
// processes. Three consumers sit on top: `minibuild explain` (decision
// tables with deltas, explain.go), `minibuild history`/`regress`
// (summaries and CI regression gating, regress.go), and `minibuild serve`
// (the /builds endpoint). They read through LoadLast, which decodes only the
// newest records they show.
//
// A record is sized by the work its build did: Units, decision tables and
// timeline events exist for the units the build decided something about, and
// a unit served from the object cache costs a share of UnitsCached and of
// CachedDigest. A decision row is the pass driver's core.SlotStats, and what a
// reader can derive is not written: a row's slot is its index, its pass name
// Pipeline[slot], its reason a function of its counts. A build fills its
// record in this shape as it goes (buildsys.Report embeds it). Records of the
// older shapes on disk (a Units entry for every unit, and in the oldest a
// "skip" timeline event too; a slot in every row, and in the older two a pass
// name and a reason; a timeline envelope that copies the record's build
// times, and an enqueue time in every event) are read and brought to this
// shape by Load and LoadLast — decoding ignores the slots, reasons, envelope
// and enqueue times, Record.Normalize does the rest — and never written.
//
// The history is bounded and is two files: the active segment, which every
// build appends one line to, and the segment that was active before it
// (OlderPath). An append reads the end of the active segment and decodes its
// last line — whose Seq it continues — and nothing else, so it costs the same
// on a file of any length and in a process that has never seen the file. An
// Appender that finds the segment as its own last append left it, by one
// Stat, reads nothing and continues the Seq it wrote. When the last line ends
// a full segment (a Seq that is a multiple of Limit, default
// DefaultLimit) the segment is renamed over the older one and the append
// starts the next. Readers read both files. A torn trailing line from a
// crashed append is dropped on the next read and repaired by the next append,
// the one case in which a segment is read whole and rewritten. The recorder
// is advisory and must never fail a build: an append that cannot read or
// write reports an error and leaves the history as it found it.
//
// Determinism: records encode via encoding/json, which sorts map keys, so
// two encodings of the same record (and the metrics/unit tables inside it)
// are byte-identical and history files diff cleanly.
package history

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/vfs"
)

// FileName is the flight recorder's active segment inside a state directory.
const FileName = "history.jsonl"

// DefaultLimit is the default record cap of a history segment: the two
// segments hold the newest DefaultLimit records at least.
const DefaultLimit = 200

// maxLineBytes is the longest line read back as a record; a longer one is
// corrupt.
const maxLineBytes = 16 * 1024 * 1024

// TempPattern is the glob the in-flight temp files of a segment's repair
// match. A crash mid-repair orphans one; it is never read back, so a state
// directory's single writer may sweep matches at startup.
const TempPattern = ".history-*"

// UnitRecord is one unit's outcome within a build.
type UnitRecord struct {
	// Cached marks units served whole from a cache (content hash unchanged);
	// no compilation, hence no pass decisions. Such a unit is listed in
	// Record.Units only when there is more to say about it (Remote,
	// Quarantine, a footprint disagreement).
	Cached bool `json:"cached,omitempty"`
	// CompileNS is the unit's compile wall time (0 when cached).
	CompileNS int64 `json:"compile_ns,omitempty"`
	// Passes is the per-slot decision table, one row per pipeline slot in
	// slot order: the pass driver's statistics as it returned them (nil for
	// cached units).
	// Record.PassName names a row's pass, core.SlotStats.Reason gives its
	// dominant decision reason.
	Passes []core.SlotStats `json:"passes,omitempty"`
	// Panicked marks a unit whose compile panicked this build; the panic was
	// isolated and the unit recompiled through the stateless fallback.
	Panicked bool `json:"panicked,omitempty"`
	// Quarantine is the unit's active quarantine reason after this build
	// ("" when none; see core.Quarantine*).
	Quarantine string `json:"quarantine,omitempty"`
	// Remote marks units served from the shared content-addressed cache
	// (internal/cas): a cache hit fetched and byte-verified over the wire.
	Remote bool `json:"remote,omitempty"`
}

// Record is one build's flight-recorder entry.
type Record struct {
	// Seq numbers records monotonically within one history file (assigned
	// by Append).
	Seq int `json:"seq"`
	// TimeUnixMS is the build's completion wall-clock time.
	TimeUnixMS int64 `json:"time_unix_ms"`
	// Mode and Workers describe the builder configuration.
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// Build-level timings and tallies. Workers and the three times are the
	// ones the Timeline is validated and analyzed against: it keeps no copy.
	TotalNS       int64 `json:"total_ns"`
	CompileNS     int64 `json:"compile_ns"`
	LinkNS        int64 `json:"link_ns"`
	UnitsCompiled int   `json:"units_compiled"`
	UnitsCached   int   `json:"units_cached"`
	// UnitsRemote counts shared-cache hits within UnitsCached.
	UnitsRemote int `json:"units_remote,omitempty"`
	// CachedDigest stands for the names of the cached units Units does not
	// list (see CachedDigest): equal digests, the same units left alone.
	CachedDigest string `json:"cached_digest,omitempty"`
	StateBytes   int    `json:"state_bytes"`
	// SkipRatePct is this build's registry skip rate ×100 at record time.
	SkipRatePct float64 `json:"skip_rate_pct"`
	// FootprintMissed / FootprintRedundant list the units (unit order) whose
	// declared cache decision disagreed with their traced dependency
	// footprint this build: missed invalidations are soundness violations,
	// redundant recompiles wasted work (docs/ROBUSTNESS.md). Present only
	// when footprint tracing was on and a disagreement occurred; `minibuild
	// deps -check` exits 2 on a fresh missed entry.
	FootprintMissed    []string `json:"footprint_missed,omitempty"`
	FootprintRedundant []string `json:"footprint_redundant,omitempty"`
	// Timeline is the build's scheduling event log: an event for each unit
	// that occupied a worker (absent in records from builds that predate it,
	// and in cancelled builds).
	Timeline *obs.Timeline `json:"timeline,omitempty"`
	// Metrics is the builder's counters-registry snapshot after the build
	// (cumulative across the builder's lifetime; schema in
	// docs/OBSERVABILITY.md). encoding/json sorts the keys.
	Metrics map[string]int64 `json:"metrics"`
	// Pipeline names the pass of each pipeline slot, once for the build's
	// every decision table (absent when no unit has one).
	Pipeline []string `json:"pipeline,omitempty"`
	// Units maps the units the build decided — compiled, fetched from the
	// shared cache, panicked, quarantined, or named in FootprintMissed or
	// FootprintRedundant — to their outcome and decisions. Every other unit
	// of the snapshot was served from the object cache and is counted in
	// UnitsCached; Unit answers for it.
	Units map[string]UnitRecord `json:"units"`
}

// Unit returns the named unit's outcome: its entry in Units, or for a unit
// the record does not list what every such unit was — cached.
func (r *Record) Unit(name string) UnitRecord {
	if u, ok := r.Units[name]; ok {
		return u
	}
	return UnitRecord{Cached: true}
}

// PassName returns the pass of row slot of a decision table of this record.
func (r *Record) PassName(slot int, row *core.SlotStats) string {
	if row.Pass == "" && slot < len(r.Pipeline) {
		return r.Pipeline[slot]
	}
	return row.Pass
}

// CachedDigest is the digest a record carries in place of the names of the
// cached units it does not list: 16 hex digits of the SHA-256 over the
// sorted names (sorted here, in place), each followed by a newline; "" for
// no names.
func CachedDigest(names []string) string {
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		io.WriteString(h, name)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Normalize brings a record of one of the older shapes on disk to today's: a
// timeline event of a unit that occupied no worker (a "skip" on worker -1) is
// dropped, a Units entry that says nothing but "cached" goes into
// CachedDigest, and the rows' pass names move to Pipeline by position.
// (Decoding has already ignored the rows' slot and reason keys: a row's slot
// is its index and its reason a function of its counts.) A record in today's
// shape is left as it is.
func (r *Record) Normalize() {
	if r.Timeline != nil {
		r.Timeline.Events = slices.DeleteFunc(r.Timeline.Events, func(e obs.UnitEvent) bool { return e.Worker < 0 })
	}
	var unlisted []string
	listed := make([]string, 0, len(r.Units))
	for name, u := range r.Units {
		if u.Cached && !u.Remote && !u.Panicked && u.Quarantine == "" && u.CompileNS == 0 && u.Passes == nil &&
			!slices.Contains(r.FootprintMissed, name) && !slices.Contains(r.FootprintRedundant, name) {
			unlisted = append(unlisted, name)
			delete(r.Units, name)
		} else {
			listed = append(listed, name)
		}
	}
	if len(unlisted) > 0 {
		r.CachedDigest = CachedDigest(unlisted)
	}
	sort.Strings(listed)
	for _, name := range listed {
		passes := r.Units[name].Passes
		for slot := range passes {
			row := &passes[slot]
			// The first table to name the next slot's pass names it for the
			// record. A row that disagrees keeps its own name.
			if row.Pass != "" && slot == len(r.Pipeline) {
				r.Pipeline = append(r.Pipeline, row.Pass)
			}
			if slot < len(r.Pipeline) && r.Pipeline[slot] == row.Pass {
				row.Pass = ""
			}
		}
	}
}

// decodeLine decodes one line of a history file for a reader.
func decodeLine(line []byte) (rec Record, ok bool) {
	if len(line) >= maxLineBytes || json.Unmarshal(line, &rec) != nil {
		return rec, false
	}
	rec.Normalize()
	return rec, true
}

// Encode renders the record as its canonical single JSON line (no trailing
// newline). Encoding the same record twice is byte-identical.
func (r *Record) Encode() ([]byte, error) {
	return json.Marshal(r)
}

// Path returns the path of the flight recorder's active segment inside a
// state directory; every function of this package that takes a history path
// takes this one and finds the older segment beside it.
func Path(stateDir string) string {
	return filepath.Join(stateDir, FileName)
}

// OlderPath returns the path of the segment that was active before the one at
// path: history.jsonl → history.1.jsonl.
func OlderPath(path string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + ".1" + ext
}

// Load reads every parseable record of a history: the older segment's, then
// the active segment's. A missing file is an empty history; corrupt lines —
// in particular a torn trailing line from a crashed append — are dropped,
// never an error. Records are returned in file order (oldest first). It is
// LoadLast with no bound: the lines are read from the end, and at a line of
// maxLineBytes or more, which no reader can read whole, reading stops with
// the records after it.
func Load(path string) ([]Record, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS is Load through an injectable filesystem (nil means the real
// one).
func LoadFS(fsys vfs.FS, path string) ([]Record, error) {
	return load(vfs.Default(fsys), path, math.MaxInt)
}

// Append writes rec to the history whose active segment is at path, assigning
// the next Seq and keeping at least the newest limit records (DefaultLimit
// when limit <= 0). See AppendFS for what is read, what is written and when a
// segment is rotated or rewritten.
func Append(path string, rec *Record, limit int) error {
	return AppendFS(vfs.OS, path, rec, limit)
}

// AppendFS is Append through an injectable filesystem (nil means the real
// one): the append of an Appender that remembers nothing.
func AppendFS(fsys vfs.FS, path string, rec *Record, limit int) error {
	return NewAppender(fsys, path, limit, nil).Append(rec)
}

// Appender appends records to the history whose active segment is at one
// path, and remembers what its own last append left there: the file, its
// size and modification time after the write, and the Seq written. A builder
// holds one for its life, so that an append to a segment nobody else touched
// since reads nothing (see Append).
type Appender struct {
	fs        vfs.FS
	path      string
	limit     int
	tailReads *obs.Counter
	// last is the segment as the last append left it (nil: nothing is
	// remembered), seq the Seq that append wrote.
	last fs.FileInfo
	seq  int
}

// NewAppender returns an Appender of the history whose active segment is at
// path, through fsys (nil means the real filesystem), keeping at least the
// newest limit records (DefaultLimit when limit <= 0). tailReads, when not
// nil, counts the appends that read the end of the segment.
func NewAppender(fsys vfs.FS, path string, limit int, tailReads *obs.Counter) *Appender {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Appender{fs: vfs.Default(fsys), path: path, limit: limit, tailReads: tailReads}
}

// Append writes rec to the history, assigning the next Seq.
//
// When the appender remembers its last append, and one Stat finds the
// segment the file it wrote, of the size and modification time that write
// left, and no rotation is due (its Seq is not a multiple of the limit), the
// record is numbered after the remembered Seq and written: one O_APPEND
// write, nothing read. After every write a Stat refreshes the memory, which
// is kept only when the segment is still the file the append wrote to and
// grew by exactly the new line; a foreign writer in between drops it. Any
// mismatch, and the first append, take the full path below.
//
// What is read: the end of the active segment — one chunk, more only when
// its last line is longer — and of that the last line is decoded, the way
// LoadFS decodes it. The segment must end in a whole record: a line that
// decodes, and its newline. Its Seq numbers the new record; nothing before
// it is looked at, so an append costs the same on a file of any length, and
// a corrupt line in the middle of a segment stays where it is (readers drop
// it) until the segment is rotated out. An empty or missing active segment
// takes the numbering from the end of the older one.
//
// What is written: the record's line, one O_APPEND write. Before it, when the
// active segment is full — it ends on a Seq that is a multiple of limit, and
// holds limit lines or more (see rotate) — the segment is renamed to
// OlderPath, replacing the older segment, and the write starts the next:
// rotation moves no byte. At least the newest limit records are in the two
// files at any time, and a process whose segment is renamed between its read
// and its write writes to the renamed file, which readers still read. Two
// processes that find the segment full at once must not both rename — the
// second would replace the full segment with the first one's new one — so a
// rotation is made under a lock on the state directory, by whoever gets it
// without waiting and still finds the file it read; the other writes to what
// it finds.
//
// The repair, before any of that: an active segment that does not end in a
// whole record — a crashed append's torn line, a line that does not decode —
// is read whole and rewritten. Its lines that decode are copied to a temp
// file byte for byte as they stand (an old record is never re-marshalled, so
// fields this version does not know survive) and the temp file replaces the
// segment atomically (fsync + rename); the append then looks at the end of
// the file again and goes on as above. A last line that neither ends nor
// decodes may instead be another process's append seen between two pages of
// its one write, and replacing the file under a live writer loses its record
// and every record that lands before the rename: a live write ends within
// microseconds, a dead one never, so the append looks again (three times,
// about 11 ms in all) before it calls the line dead.
//
// Every failure is returned, and none of them shrinks the history. A read
// that fails, tears or crashes ends the append with both files untouched. A
// failed rotation leaves the full segment active for the next append to
// rotate; a crash after it leaves the older segment alone, which holds limit
// records and the Seq the next append continues from. A short write or a
// failing Close on the O_APPEND handle, which can silently drop a buffered
// record, is detected too. The Stat after the write is not a failure of the
// append — the record is written — and only drops the memory. Callers that
// treat the recorder as advisory (the build system) surface the error as a
// warning and a counter rather than dropping it on the floor.
func (a *Appender) Append(rec *Record) error {
	last := a.last
	a.last = nil // what this append leaves, write remembers
	if last != nil && a.seq%a.limit != 0 {
		fi, err := a.fs.Stat(a.path)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("history: %w", err)
		}
		if err == nil && os.SameFile(last, fi) && fi.Size() == last.Size() && fi.ModTime().Equal(last.ModTime()) {
			return a.write(rec, a.seq, last)
		}
	}
	if err := a.fs.MkdirAll(filepath.Dir(a.path), 0o755); err != nil {
		return fmt.Errorf("history: %w", err)
	}

	a.tailReads.Inc()
	end, err := readEnd(a.fs, a.path)
	for wait := tornTailWait; err == nil && end.torn && wait <= 100*tornTailWait; wait *= 10 {
		time.Sleep(wait)
		end, err = readEnd(a.fs, a.path)
	}
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if !end.whole {
		if err := repair(a.fs, a.path); err != nil {
			return fmt.Errorf("history: %w", err)
		}
		if end, err = readEnd(a.fs, a.path); err != nil {
			return fmt.Errorf("history: %w", err)
		}
		if !end.whole {
			return fmt.Errorf("history: %s does not end in a whole record after its repair: another process is writing it", a.path)
		}
	}
	if end.file == nil || end.size == 0 {
		if end.seq, err = olderSeq(a.fs, a.path); err != nil {
			return err
		}
	} else if end.seq > 0 && end.seq%a.limit == 0 {
		rotated, err := rotate(a.fs, a.path, end.file, a.limit)
		if err != nil {
			return fmt.Errorf("history: %w", err)
		}
		if rotated {
			end.file = nil
		}
	}
	return a.write(rec, end.seq, end.file)
}

// write numbers rec after seq and appends its line to the segment, which the
// caller found to be the file prev (nil: no file, or one it rotated away),
// and remembers what the write left if the segment is prev grown by the line,
// or a file holding the line alone.
func (a *Appender) write(rec *Record, seq int, prev fs.FileInfo) error {
	rec.Seq = seq + 1
	line, err := rec.Encode()
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	line = append(line, '\n')

	f, err := a.fs.OpenFile(a.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	n, werr := f.Write(line)
	if werr == nil && n != len(line) {
		// A short write without an error would silently truncate the
		// record; report it so the caller can count and warn.
		werr = io.ErrShortWrite
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("history: %w", werr)
	}

	want := int64(len(line))
	if prev != nil {
		want += prev.Size()
	}
	if fi, err := a.fs.Stat(a.path); err == nil && fi.Size() == want && (prev == nil || os.SameFile(prev, fi)) {
		a.last, a.seq = fi, rec.Seq
	}
	return nil
}

// tornTailWait is the first of the three waits (×1, ×10, ×100) an append
// gives a torn last line to turn into a whole one.
const tornTailWait = 100 * time.Microsecond

// segmentEnd is what an append learns from the end of the active segment.
type segmentEnd struct {
	file fs.FileInfo // nil: there is no such file
	size int64
	// whole: the segment may be appended to in place. It is missing or
	// empty, or its last line decodes, to Seq seq, and ends in a newline.
	whole bool
	seq   int
	// torn: not whole, and the bytes after the last newline do not decode —
	// what a crashed append leaves, or one still being written.
	torn bool
}

// readEnd reads the last line of the segment at path. Any failure to read is
// an error: a segment that could not be read must never pass for an empty
// one.
func readEnd(fsys vfs.FS, path string) (segmentEnd, error) {
	var end segmentEnd
	fi, err := fsys.Stat(path)
	if os.IsNotExist(err) {
		end.whole = true
		return end, nil
	}
	if err != nil {
		return end, err
	}
	f, err := fsys.Open(path)
	if os.IsNotExist(err) { // rotated away since the Stat
		end.whole = true
		return end, nil
	}
	if err != nil {
		return end, err
	}
	defer f.Close()
	lines, err := newBackward(f)
	if err != nil {
		return end, err
	}
	end.file, end.size = fi, lines.size
	// What follows the last newline comes first: nothing, in a file that
	// ends in a whole line.
	rest, more, err := lines.next()
	if err != nil {
		return end, err
	}
	if !more && len(rest) == 0 {
		end.whole = true // an empty file
		return end, nil
	}
	last := rest
	if len(rest) == 0 {
		if last, _, err = lines.next(); err != nil {
			return end, err
		}
	}
	rec, ok := decodeLine(last)
	end.whole, end.seq = ok && len(rest) == 0, rec.Seq
	end.torn = !ok && len(rest) > 0
	return end, nil
}

// olderSeq returns the Seq of the newest record of the older segment, 0 when
// there is none: where the numbering continues when the active segment has
// nothing in it — before the first rotation, and after a crash between a
// rotation and the write that follows it.
func olderSeq(fsys vfs.FS, path string) (int, error) {
	recs, err := loadLast(fsys, []string{OlderPath(path)}, 1)
	if err != nil || len(recs) == 0 {
		return 0, err
	}
	return recs[0].Seq, nil
}

// rotate makes the active segment, seen by the caller as the file active and
// ending on a multiple of limit, the older one — if it is full: if it holds
// limit lines. (Two writers can give two records one Seq, and the second can
// land after the rotation that the first one's Seq set off: the new segment
// then ends on that Seq again, a few lines long. Renaming it would replace
// limit records with those few.) Counting reads the segment once, which an
// append otherwise never does, once in limit appends. Nothing is renamed
// either when another process holds the rotation lock — it is rotating this
// segment now — or when the file at path is no longer the one the caller saw:
// it has been rotated since. It reports whether it renamed the segment.
func rotate(fsys vfs.FS, path string, active fs.FileInfo, limit int) (bool, error) {
	unlock, ok := lockRotation(filepath.Dir(path))
	if !ok {
		return false, nil
	}
	defer unlock()
	now, err := fsys.Stat(path)
	if os.IsNotExist(err) || err == nil && !os.SameFile(active, now) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	f, err := fsys.Open(path)
	if err != nil {
		return false, err
	}
	lines, chunk := 0, make([]byte, tailChunk)
	for err == nil {
		var n int
		n, err = f.Read(chunk)
		lines += bytes.Count(chunk[:n], []byte{'\n'})
	}
	f.Close()
	if err != io.EOF {
		return false, err
	}
	if lines < limit {
		return false, nil
	}
	if err := fsys.Rename(path, OlderPath(path)); err != nil {
		return false, err
	}
	return true, nil
}

// repair replaces an active segment that does not end in a whole record with
// its lines that decode, as they stand (see AppendFS).
func repair(fsys vfs.FS, path string) error {
	data, err := readFile(fsys, path)
	if err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), TempPattern)
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for kept := scanLines(data); len(kept) > 0; {
		// Neighbouring lines go out as one write.
		run := kept[0]
		for kept = kept[1:]; len(kept) > 0 && kept[0].start == run.end; kept = kept[1:] {
			run.end = kept[0].end
		}
		w.Write(data[run.start:run.end])
		if data[run.end-1] != '\n' {
			w.WriteByte('\n') // an unterminated last line that decoded
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp.Name(), path)
}

// readFile returns the bytes of the file at path (nil for a missing file),
// read through fsys so that every read is a fault point. Any failure but
// end of file is an error: a short history must never pass for a whole one.
func readFile(fsys vfs.FS, path string) ([]byte, error) {
	fi, err := fsys.Stat(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// One buffer of the file's size; the slack lets the read that reports
	// end of file find room, so the buffer grows only if the file did.
	return readToEOF(f, make([]byte, 0, fi.Size()+512))
}

// readToEOF appends what is left of f to data.
func readToEOF(f vfs.File, data []byte) ([]byte, error) {
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// span is one line of a segment as offsets into its bytes: end is past the
// newline when the line has one.
type span struct{ start, end int }

// scanLines walks a segment's lines once and returns the spans of those
// LoadFS would return a record for.
func scanLines(data []byte) (kept []span) {
	for start := 0; start < len(data); {
		text, _, terminated := bytes.Cut(data[start:], []byte{'\n'})
		end := start + len(text)
		if terminated {
			end++
		}
		var rec Record
		if len(text) < maxLineBytes && json.Unmarshal(text, &rec) == nil {
			kept = append(kept, span{start, end})
		}
		start = end
	}
	return kept
}

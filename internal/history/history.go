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
// CachedDigest. What a reader can derive is not written: a decision row's
// pass name is Pipeline[Slot], its reason a function of its counts. Records
// of the two older shapes (a Units entry for every unit; a pass name and a
// reason in every row) are read and brought to this shape by Load and
// LoadLast (Record.Normalize, which a build's own record goes through as
// well), never written.
//
// The file is bounded: Append keeps only the newest Limit records
// (default DefaultLimit). An append reads the file once and decodes every
// line to check it, one record at a time, keeping only where each valid
// line starts and ends; it then either adds its line in place or, when the
// file is at the limit or holds a line that did not decode, replaces the
// file atomically with the newest valid lines copied as they stand plus
// the new one. A torn trailing line from a crashed append is dropped on the
// next read and repaired by the next append. The recorder is advisory and
// must never fail a build: an append that cannot read or write reports an
// error and leaves the history as it found it.
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
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"statefulcc/internal/core"
	"statefulcc/internal/obs"
	"statefulcc/internal/vfs"
)

// FileName is the flight-recorder file inside a state directory.
const FileName = "history.jsonl"

// DefaultLimit is the default record cap of a history file.
const DefaultLimit = 200

// maxLineBytes is the longest line read back as a record; a longer one is
// corrupt.
const maxLineBytes = 16 * 1024 * 1024

// TempPattern is the glob the rotation rewriter's in-flight temp files
// match. A crash mid-rewrite orphans one; like state.TempPattern files,
// they are never read back, so a state directory's single writer may
// sweep matches at startup.
const TempPattern = ".history-*"

// PassDecision is one pipeline slot's decision provenance for one unit:
// what the slot did and, for every execution, why. The slot's pass is
// Record.PassName, its dominant reason DecisionReason.
type PassDecision struct {
	// Pass and Reason are read, not written: records from before the pass
	// names moved to Record.Pipeline and the reason became derived carry
	// them in every row. A loaded record keeps one only where it says
	// something Pipeline or the counts do not.
	Pass   string `json:"pass,omitempty"`
	Slot   int    `json:"slot"`
	Module bool   `json:"module,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Per-outcome execution counts.
	Runs    int `json:"runs,omitempty"`
	Dormant int `json:"dormant,omitempty"`
	Skipped int `json:"skipped,omitempty"`
	// Per-reason run counts (each run charged to exactly one).
	Cold        int `json:"cold,omitempty"`
	NotDormant  int `json:"not_dormant,omitempty"`
	FPMismatch  int `json:"fingerprint_mismatch,omitempty"`
	Policy      int `json:"policy_disabled,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Soundness-sentinel provenance: Audited counts would-be skips the
	// sentinel executed anyway; Unsound counts the audits whose output
	// fingerprint differed — unsound skips (each engages a quarantine).
	Audited int `json:"audited,omitempty"`
	Unsound int `json:"unsound,omitempty"`
	// Timing: pass execution time and estimated time skipping saved.
	RunNS   int64 `json:"run_ns,omitempty"`
	SavedNS int64 `json:"saved_ns,omitempty"`
	// Hierarchical-fingerprint memo effectiveness while this slot's
	// fingerprints were taken: block hashes served from the memo vs
	// recomputed.
	BlocksMemoized int64 `json:"blocks_memoized,omitempty"`
	BlocksRehashed int64 `json:"blocks_rehashed,omitempty"`
}

// DecisionReason is the slot's dominant decision reason, in the core.Reason*
// taxonomy (skipped-dormant, cold-state, not-dormant-last-time,
// fingerprint-mismatch, policy-disabled, ran): core.SlotStats.Reason over the
// counts the row carries.
func (pd *PassDecision) DecisionReason() string {
	if pd.Reason != "" {
		return pd.Reason
	}
	sl := core.SlotStats{
		Runs: pd.Runs, Skipped: pd.Skipped, Unsound: pd.Unsound, Quarantined: pd.Quarantined,
		FPMismatch: pd.FPMismatch, NotDormant: pd.NotDormant, Cold: pd.Cold, Policy: pd.Policy,
	}
	return sl.Reason()
}

// UnitRecord is one unit's outcome within a build.
type UnitRecord struct {
	// Cached marks units served whole from a cache (content hash unchanged);
	// no compilation, hence no pass decisions. Such a unit is listed in
	// Record.Units only when there is more to say about it (Remote,
	// Quarantine, a footprint disagreement).
	Cached bool `json:"cached,omitempty"`
	// CompileNS is the unit's compile wall time (0 when cached).
	CompileNS int64 `json:"compile_ns,omitempty"`
	// Passes is the per-slot decision table (nil for cached units and for
	// modes without a pass driver, e.g. fullcache).
	Passes []PassDecision `json:"passes,omitempty"`
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

// TimelineEvent is one scheduled unit's event in the compact persisted form
// (single-letter keys: the history file is bounded by bytes in practice, not
// records).
type TimelineEvent struct {
	Unit    string `json:"u"`
	Worker  int    `json:"w"`
	Outcome string `json:"o"`
	// Monotonic nanoseconds since the build's epoch (obs.UnitEvent).
	EnqueueNS int64 `json:"q,omitempty"`
	StartNS   int64 `json:"s,omitempty"`
	EndNS     int64 `json:"e,omitempty"`
	// Per-stage split of the compile.
	FrontendNS int64 `json:"fe,omitempty"`
	PassesNS   int64 `json:"pa,omitempty"`
	CodegenNS  int64 `json:"cg,omitempty"`
}

// Timeline is the persisted form of a build's scheduling timeline
// (obs.Timeline): what `minibuild profile` and the serve /dash page
// reconstruct schedules from after the building process exited.
//
// Events holds what the build did — one event per unit that occupied a worker
// (compile, remote, panic, quarantine, error) — so a record's size follows
// the build's work, not the project's. Units served from the object cache
// have no event: their number is Record.UnitsCached less Record.UnitsRemote,
// the partition stage they were decided in ends at CompileStartNS, and the
// latency of each decision is in the builder's unit.skip_decision_ns
// histogram (obs.HistSkipDecisionNS). Records written before this carried a
// "skip" event on worker -1 for each of them; every reader drops unscheduled
// events, so both shapes read the same.
type Timeline struct {
	Workers        int             `json:"workers"`
	WallNS         int64           `json:"wall_ns"`
	CompileStartNS int64           `json:"compile_start_ns,omitempty"`
	CompileWallNS  int64           `json:"compile_wall_ns,omitempty"`
	LinkNS         int64           `json:"link_ns,omitempty"`
	Events         []TimelineEvent `json:"events"`
}

// TimelineFromObs converts a build's in-memory timeline to its persisted
// form, keeping the scheduled events only (nil in, nil out).
func TimelineFromObs(t *obs.Timeline) *Timeline {
	if t == nil {
		return nil
	}
	out := &Timeline{
		Workers:        t.Workers,
		WallNS:         t.WallNS,
		CompileStartNS: t.CompileStartNS,
		CompileWallNS:  t.CompileWallNS,
		LinkNS:         t.LinkNS,
		Events:         make([]TimelineEvent, 0, t.Compiled()),
	}
	for i := range t.Events {
		e := &t.Events[i]
		if !e.Scheduled() {
			continue
		}
		out.Events = append(out.Events, TimelineEvent{
			Unit: e.Unit, Worker: e.Worker, Outcome: e.Outcome,
			EnqueueNS: e.EnqueueNS, StartNS: e.StartNS, EndNS: e.EndNS,
			FrontendNS: e.FrontendNS, PassesNS: e.PassesNS, CodegenNS: e.CodegenNS,
		})
	}
	return out
}

// ToObs converts a persisted timeline back to the analysis form consumed
// by obs.Analyze (nil in, nil out).
func (t *Timeline) ToObs() *obs.Timeline {
	if t == nil {
		return nil
	}
	out := &obs.Timeline{
		Workers:        t.Workers,
		WallNS:         t.WallNS,
		CompileStartNS: t.CompileStartNS,
		CompileWallNS:  t.CompileWallNS,
		LinkNS:         t.LinkNS,
		Events:         make([]obs.UnitEvent, len(t.Events)),
	}
	for i, e := range t.Events {
		out.Events[i] = obs.UnitEvent{
			Unit: e.Unit, Worker: e.Worker, Outcome: e.Outcome,
			EnqueueNS: e.EnqueueNS, StartNS: e.StartNS, EndNS: e.EndNS,
			FrontendNS: e.FrontendNS, PassesNS: e.PassesNS, CodegenNS: e.CodegenNS,
		}
	}
	return out
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
	// Build-level timings and tallies.
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
	// Timeline is the build's scheduling event log (absent in records from
	// builds that predate it, and in cancelled builds).
	Timeline *Timeline `json:"timeline,omitempty"`
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

// PassName returns the pass of a decision row of this record.
func (r *Record) PassName(pd *PassDecision) string {
	if pd.Pass == "" && pd.Slot >= 0 && pd.Slot < len(r.Pipeline) {
		return r.Pipeline[pd.Slot]
	}
	return pd.Pass
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

// Normalize brings a record to the shape records have on disk, from a
// description of every unit (what a build starts from, and what the two
// older shapes on disk are): a timeline event of a unit that occupied no
// worker is dropped, a Units entry that says nothing but "cached" goes into
// CachedDigest, pass names move to Pipeline, and a row's reason is dropped
// where its counts give the same. A record in that shape is left as it is.
func (r *Record) Normalize() {
	if r.Timeline != nil {
		r.Timeline.Events = slices.DeleteFunc(r.Timeline.Events, func(e TimelineEvent) bool { return e.Worker < 0 })
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
		for i := range passes {
			pd := &passes[i]
			// Tables list their slots in order: the first to name the next
			// slot's pass names it for the record. A row that disagrees, or
			// sits out of order, keeps its own name.
			if pd.Pass != "" && pd.Slot == len(r.Pipeline) {
				r.Pipeline = append(r.Pipeline, pd.Pass)
			}
			if pd.Slot >= 0 && pd.Slot < len(r.Pipeline) && r.Pipeline[pd.Slot] == pd.Pass {
				pd.Pass = ""
			}
			if reason := pd.Reason; reason != "" {
				if pd.Reason = ""; pd.DecisionReason() != reason {
					pd.Reason = reason
				}
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

// Path returns the history file path inside a state directory.
func Path(stateDir string) string {
	return filepath.Join(stateDir, FileName)
}

// Load reads every parseable record from a history file. A missing file is
// an empty history; corrupt lines — in particular a torn trailing line from
// a crashed append — are dropped, never an error. Records are returned in
// file order (oldest first).
func Load(path string) ([]Record, error) {
	return LoadFS(vfs.OS, path)
}

// LoadFS is Load through an injectable filesystem (nil means the real
// one).
func LoadFS(fsys vfs.FS, path string) ([]Record, error) {
	f, err := vfs.Default(fsys).Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	defer f.Close()

	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		// A torn or corrupt line is dropped: stay usable.
		if rec, ok := decodeLine(sc.Bytes()); ok {
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		// A scanner failure mid-file (e.g. an absurdly long corrupt line)
		// still yields whatever parsed before it.
		return recs, nil
	}
	return recs, nil
}

// Append writes rec to the history file at path, assigning the next Seq and
// bounding the file to the newest limit records (DefaultLimit when limit
// <= 0). See AppendFS for what is read, what is kept and when the file is
// rewritten.
func Append(path string, rec *Record, limit int) error {
	return AppendFS(vfs.OS, path, rec, limit)
}

// AppendFS is Append through an injectable filesystem (nil means the real
// one).
//
// What is read: the whole file, once, into one buffer. Every line is decoded
// into a Record the way LoadFS decodes it — the decode is the validity
// check — and then dropped: only the line's byte span and its Seq stay, so
// the append never holds more than one old record decoded. Only a file that
// ends in a torn line is read again (up to three times, about 11 ms in all):
// the line may be another process's append still being written, and that
// must not be taken for a crashed one and rewritten away.
//
// What is written: rec gets the Seq after the last line that decoded. When
// every byte of the file is a newline-terminated line that decoded and the
// new record fits under the limit, the record's line is one O_APPEND write.
// Otherwise — rotation, a corrupt or blank line, a torn or unterminated
// tail — the newest limit-1 lines that decoded are copied to a temp file,
// byte for byte as they stand (an old record is never re-marshalled, so
// fields this version does not know survive), the new line follows, and the
// temp file replaces the history atomically (fsync + rename): a crash never
// loses the existing history.
//
// Every failure is returned, and none of them shrinks the history. A read
// that fails, tears or crashes ends the append with the file untouched: the
// lines it did not see are not lines that failed to decode. A short write or
// a failing Close on the O_APPEND handle, which can silently drop a
// buffered record, is detected too. Callers that treat the recorder as
// advisory (the build system) surface the error as a warning and a counter
// rather than dropping it on the floor.
func AppendFS(fsys vfs.FS, path string, rec *Record, limit int) error {
	fsys = vfs.Default(fsys)
	if limit <= 0 {
		limit = DefaultLimit
	}
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("history: %w", err)
	}

	data, err := readFile(fsys, path)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	kept, lastSeq, clean := scanLines(data)
	// A last line that neither ends nor decodes is what a crashed append
	// leaves — or another process's append seen between two pages of its one
	// write. Only the first may be rewritten away: replacing the file under a
	// live writer loses its record and every record that lands before the
	// rename. A live write ends within microseconds, a dead one never, so
	// look again a few times before calling it dead.
	for wait := tornTailWait; tornTail(data, kept) && wait <= 100*tornTailWait; wait *= 10 {
		time.Sleep(wait)
		again, err := readFile(fsys, path)
		if err != nil {
			return fmt.Errorf("history: %w", err)
		}
		if len(again) != len(data) {
			data = again
			kept, lastSeq, clean = scanLines(data)
		}
	}
	rec.Seq = lastSeq + 1
	line, err := rec.Encode()
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	line = append(line, '\n')

	if clean && len(kept)+1 <= limit {
		f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
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
		return nil
	}

	// Rewrite: the newest limit-1 lines that decoded, as they stand, then
	// the new one; swap atomically.
	if len(kept) > limit-1 {
		kept = kept[len(kept)-(limit-1):]
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), TempPattern)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	defer fsys.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	for i := 0; i < len(kept); {
		// Neighbouring lines go out as one write.
		run := kept[i]
		for i++; i < len(kept) && kept[i].start == run.end; i++ {
			run.end = kept[i].end
		}
		w.Write(data[run.start:run.end])
		if data[run.end-1] != '\n' {
			w.WriteByte('\n') // an unterminated last line that decoded
		}
	}
	w.Write(line)
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("history: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("history: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	return nil
}

// tornTailWait is the first of the three waits (×1, ×10, ×100) an append
// gives a torn last line to turn into a whole one.
const tornTailWait = 100 * time.Microsecond

// tornTail reports whether data ends in an unterminated line that is not
// among the kept ones.
func tornTail(data []byte, kept []span) bool {
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return false
	}
	return len(kept) == 0 || kept[len(kept)-1].end != len(data)
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
	data := make([]byte, 0, fi.Size()+512)
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

// span is one line of the history file as offsets into its bytes: end is
// past the newline when the line has one.
type span struct{ start, end int }

// scanLines walks the file's lines once and returns the spans of those
// LoadFS would return a record for, the Seq of the last of them (0 when
// there is none), and whether the file is clean: every byte belongs to a
// newline-terminated line that decoded. Only a clean file may be appended
// to in place — a plain append after a torn line would fuse the new record
// onto it.
func scanLines(data []byte) (kept []span, lastSeq int, clean bool) {
	clean = true
	for start := 0; start < len(data); {
		text, _, terminated := bytes.Cut(data[start:], []byte{'\n'})
		end := start + len(text)
		if terminated {
			end++
		}
		var rec Record
		if len(text) >= maxLineBytes || json.Unmarshal(text, &rec) != nil {
			clean = false // blank, torn or corrupt: LoadFS drops it too
		} else {
			kept = append(kept, span{start, end})
			lastSeq = rec.Seq
			clean = clean && terminated
		}
		start = end
	}
	return kept, lastSeq, clean
}

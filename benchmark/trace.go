package main

// The traced run: the per-layer numbers behind a workload's end-to-end
// metrics, taken from outside through each layer's public functions.
//
// A decomposed build keeps per-unit state and objects the way buildsys does
// and, for the units that changed, calls the layers directly inside spans.
// Its linked program must equal Builder.Build's at every commit, or the
// decomposition measured different work and the run fails. Counts come from
// the public outputs of the reference Builder round (Report.Metrics,
// Report.Stats, Builder.Histograms). Optional mechanisms are priced by
// paired replays of the same commits with the flight recorder off on both
// sides, in absolute ms per build so they can be set against any wall.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"statefulcc/internal/ast"
	"statefulcc/internal/buildsys"
	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/fingerprint"
	"statefulcc/internal/history"
	"statefulcc/internal/ir"
	"statefulcc/internal/irbuild"
	"statefulcc/internal/obs"
	"statefulcc/internal/parser"
	"statefulcc/internal/passes"
	"statefulcc/internal/project"
	"statefulcc/internal/source"
	"statefulcc/internal/state"
	"statefulcc/internal/types"
)

// span is one timed call into a layer. Spans of one build share BuildID
// (-1 is the untimed priming build); Parent indexes the enclosing span.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	BuildID int    `json:"build_id"`
}

// tracer keeps spans in memory; the caller writes them out at exit.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name, layer string, parent, build int) int {
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, BuildID: build,
		StartNS: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].EndNS = time.Since(t.epoch).Nanoseconds() }

// The spans of the decomposed build. probeSpan is a measurement of its own
// (fingerprint.Function from outside), not a step of the build: it is left
// out of the layer budget.
const (
	spanBuild   = "buildsys.build"
	spanLoad    = "state.load"
	spanParse   = "parser.parse"
	spanCheck   = "types.check"
	spanLower   = "irbuild.lower"
	spanRun     = "core.run"
	spanCompile = "codegen.compile"
	spanSave    = "state.save"
	spanFetch   = "cas.fetch"
	spanLink    = "codegen.link"
	spanHistory = "history.append"
	spanProbe   = "fingerprint.probe"
)

// serialSpans run once per build on the orchestrating goroutine; the other
// build steps run once per unit on the worker pool.
var serialSpans = map[string]bool{spanLink: true, spanHistory: true}

// layerOf is the module a span belongs to: its name up to the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// The shared cache's action-key domains, as buildsys derives them. A drift
// from buildsys makes every decomposed fetch a miss, which fails the run.
const casObjectDomain = "statefulcc/object"

var casStateDomain = fmt.Sprintf("statefulcc/state/v%d", state.FormatVersion)

type decomposedUnit struct {
	obj *codegen.Object
	st  *core.UnitState
}

// decomposed is one builder's worth of retained state, rebuilt from the
// layers' public functions.
type decomposed struct {
	tr       *tracer
	driver   *core.Driver
	pipeline []string
	stateDir string
	store    cas.Store // set for the shared-cache workload
	units    map[string]*decomposedUnit
	prev     project.Snapshot
	paths    map[string]string // unit → state file, as found on disk
	rec      *history.Record   // the record appended after every build
	*replayStats
}

// replayStats is the work a replay counted at the span boundaries, over the
// measured builds of all its builders.
type replayStats struct {
	srcBytes, irValues, irValuesOut, funcsProbed int64
	loadBytes, saveBytes                         int64
	speed                                        []float64 // machine speed around each measured build
}

func newDecomposed(tr *tracer, stats *replayStats, stateDir string, store cas.Store, rec *history.Record) (*decomposed, error) {
	driver, err := core.NewDriver(core.Options{Pipeline: passes.StandardPipeline, Policy: core.Stateful})
	if err != nil {
		return nil, err
	}
	d := &decomposed{tr: tr, driver: driver, pipeline: driver.Pipeline(), stateDir: stateDir, store: store,
		units: map[string]*decomposedUnit{}, paths: map[string]string{}, rec: rec, replayStats: stats}
	// State files are named by buildsys; find each unit's by what it holds.
	files, err := filepath.Glob(filepath.Join(stateDir, "*.state"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		st, err := state.Load(f)
		if err != nil || st == nil {
			return nil, fmt.Errorf("decomposed build: unreadable state file %s: %v", f, err)
		}
		d.paths[st.Unit] = f
	}
	return d, nil
}

func (d *decomposed) statePath(unit string) string {
	if p, ok := d.paths[unit]; ok {
		return p
	}
	p := filepath.Join(d.stateDir, fmt.Sprintf("unit-%04d.state", len(d.paths)))
	d.paths[unit] = p
	return p
}

// stateSize is the serialized size of a unit's state. Encoding into a
// counter cannot fail.
func stateSize(st *core.UnitState) int64 {
	n, _ := state.FileSize(st)
	return int64(n)
}

func irValues(m *ir.Module) int64 {
	var n int64
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += int64(len(b.Phis) + len(b.Instrs) + 1)
		}
	}
	return n
}

// build is Builder.Build taken apart: the units project.Diff reports go
// through the layers one call at a time, then everything links and the
// flight recorder appends.
func (d *decomposed) build(id int, snap project.Snapshot) (*codegen.Program, error) {
	tr := d.tr
	root := tr.begin(spanBuild, layerOf(spanBuild), -1, id)
	defer tr.end(root)
	in := func(name string, f func() error) error {
		i := tr.begin(name, layerOf(name), root, id)
		defer tr.end(i)
		return f()
	}
	measured := id >= 0

	work := snap.Units()
	if d.prev != nil {
		work = project.Diff(d.prev, snap)
	}
	for _, name := range work {
		u := d.units[name]
		if u == nil {
			u = &decomposedUnit{}
			d.units[name] = u
		}
		src := snap[name]
		if d.store != nil {
			if err := d.fetch(in, u, name, src); err != nil {
				return nil, err
			}
			continue
		}
		if u.st == nil {
			if err := in(spanLoad, func() (err error) {
				u.st, err = state.LoadFS(nil, d.statePath(name))
				return err
			}); err != nil {
				return nil, err
			}
			if measured && u.st != nil {
				d.loadBytes += stateSize(u.st)
			}
		}

		var errs source.ErrorList
		file := source.NewFile(name, src)
		var tree *ast.File
		var info *types.Info
		var m *ir.Module
		failed := func() error {
			if errs.HasErrors() {
				return &errs
			}
			return nil
		}
		err := in(spanParse, func() error { tree = parser.ParseFile(file, &errs); return failed() })
		if err == nil {
			err = in(spanCheck, func() error { info = types.Check(file, tree, &errs); return failed() })
		}
		if err == nil {
			err = in(spanLower, func() (err error) { m, err = irbuild.Build(name, tree, info); return err })
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if measured {
			d.srcBytes += int64(len(src))
			d.irValues += irValues(m)
			d.funcsProbed += int64(len(m.Funcs))
			_ = in(spanProbe, func() error {
				for _, f := range m.Funcs {
					fingerprint.Function(f)
				}
				return nil
			})
		}
		if err := in(spanRun, func() (err error) { u.st, _, err = d.driver.Run(m, u.st); return err }); err != nil {
			return nil, err
		}
		if err := in(spanCompile, func() (err error) { u.obj, err = codegen.Compile(m); return err }); err != nil {
			return nil, err
		}
		if err := in(spanSave, func() error { return state.SaveFS(nil, d.statePath(name), u.st) }); err != nil {
			return nil, err
		}
		if measured {
			d.irValuesOut += irValues(m)
			d.saveBytes += stateSize(u.st)
		}
	}
	d.prev = snap

	objs := make([]*codegen.Object, 0, len(snap))
	for _, name := range snap.Units() {
		objs = append(objs, d.units[name].obj)
	}
	var prog *codegen.Program
	if err := in(spanLink, func() (err error) { prog, err = codegen.Link(objs); return err }); err != nil {
		return nil, err
	}
	if err := in(spanHistory, func() error {
		return history.AppendFS(nil, history.Path(d.stateDir), d.rec, 0)
	}); err != nil {
		return nil, err
	}
	return prog, nil
}

// fetch is buildsys's remote hit: object by action key, every blob checked
// against the action and unit asked for, then the unit's shared dormancy
// state adopted and saved locally.
func (d *decomposed) fetch(in func(string, func() error) error, u *decomposedUnit, unit string, src []byte) error {
	get := func(domain string, kind int) ([]byte, error) {
		action := cas.ActionKey(domain, core.StateVersion, cas.BlobFormatVersion,
			compiler.ModeStateful.String(), d.pipeline, unit, src)
		key, err := d.store.ActionGet(action)
		if err != nil {
			return nil, err
		}
		data, err := d.store.Get(key)
		if err != nil {
			return nil, err
		}
		blob, err := cas.DecodeBlob(data)
		if err != nil {
			return nil, err
		}
		if blob.Kind != kind || blob.Action != action || blob.Unit != unit {
			return nil, cas.ErrVerify
		}
		return blob.Payload, nil
	}
	if err := in(spanFetch, func() error {
		payload, err := get(casObjectDomain, cas.KindObject)
		if err != nil {
			return err
		}
		if u.obj, err = cas.DecodeObject(payload); err != nil {
			return err
		}
		if payload, err = get(casStateDomain, cas.KindState); err != nil {
			return err
		}
		u.st, err = state.DecodeBytes(payload)
		return err
	}); err != nil {
		return fmt.Errorf("decomposed fetch of %s: %w", unit, err)
	}
	return in(spanSave, func() error { return state.SaveFS(nil, d.statePath(unit), u.st) })
}

// layerMS sums span self time by name over the measured builds, in ms at
// the machine's nominal speed (speed is per build). A span's self time is
// its duration minus its children's.
func layerMS(spans []span, speed []float64) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.BuildID >= 0 {
			out[s.Name] += float64(self[i]) / 1e6 * speed[s.BuildID]
		}
	}
	return out
}

// replay runs the workload's commits through the decomposed build on its
// own copy of the fixture and holds every linked program to the reference
// round's.
func (e *env) replay(tr *tracer, ref *roundResult) (*replayStats, error) {
	dir := filepath.Join(e.work, "decomposed")
	stateDir := filepath.Join(dir, stateDirName)
	var store cas.Store
	if e.spec.Remote {
		// The cache the reference round's publisher filled is gone with the
		// round; fill one the same way, behind the same wire.
		url, stop := startCache()
		defer stop()
		store = cas.NewHTTPCAS(url, "")
		pub, err := buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, CAS: store})
		if err != nil {
			return nil, err
		}
		for _, snap := range append([]project.Snapshot{e.base}, e.commits...) {
			if err := buildClean(pub, snap, true); err != nil {
				return nil, err
			}
		}
	} else if err := copyDir(filepath.Join(e.fixtureDir, stateDirName), stateDir); err != nil {
		return nil, err
	}

	fresh := e.spec.Fresh || e.spec.Remote
	stats := &replayStats{}
	var d *decomposed
	for i := -1; i < len(e.commits); i++ {
		snap := e.base
		if i >= 0 {
			snap = e.commits[i]
		}
		if i < 0 && fresh {
			continue // a new builder per commit has nothing to prime
		}
		if d == nil || fresh {
			sd := stateDir
			if e.spec.Remote {
				sd = filepath.Join(dir, fmt.Sprintf("runner-%03d", i))
			}
			var err error
			if d, err = newDecomposed(tr, stats, sd, store, ref.History.Last); err != nil {
				return nil, err
			}
		}
		before := probeMS()
		prog, err := d.build(i, snap)
		if err != nil {
			return nil, fmt.Errorf("decomposed build %d: %w", i, err)
		}
		if i >= 0 {
			stats.speed = append(stats.speed, speedBetween(before, probeMS()))
		}
		if i >= 0 && digest(prog) != ref.Digest[i] {
			return nil, fmt.Errorf("decomposed build %d linked a different program than Builder.Build: the layer budget measured different work", i)
		}
	}
	return stats, nil
}

// refusing is a shared-cache client whose every exchange is refused before
// a byte moves: a fully partitioned backend.
func refusing() cas.Store {
	return cas.NewHTTPCASOpts("http://127.0.0.1:9", "", cas.HTTPOptions{
		Transport: cas.NewFaultTransport(nil, cas.WithNetRules(cas.NetRule{Kind: cas.NetRefused})),
	})
}

func recorderOff(o *buildsys.Options) { o.HistoryPath = "-" }

// traceResult is what a traced run hands back.
type traceResult struct {
	Layers    map[string]float64
	Spans     []span
	Attempted int
	Failures  []string
}

// traceRun makes the traced run of the workload: a reference round of the
// configuration of record, the decomposed replay of the same commits, and
// the paired replays that price the optional mechanisms.
func (e *env) traceRun() (*traceResult, error) {
	all := len(e.commits)
	// Paired replays use the first half of the commits, but no fewer than
	// four where there are that many: two builds a side resolve nothing.
	half := min(all, max(4, all/2))
	m := float64(all)
	out := &traceResult{Layers: map[string]float64{}}
	L := out.Layers

	ref, err := e.round(variant{reference: true})
	if err != nil {
		return nil, err
	}
	if err := e.spec.engaged(len(e.base), ref.Builds); err != nil {
		return nil, fmt.Errorf("%s did not take the path it measures: %w", e.spec.Name, err)
	}
	out.Attempted = all
	out.Failures = ref.Failures

	tr := &tracer{epoch: time.Now()}
	dec, err := e.replay(tr, ref)
	if err != nil {
		return nil, err
	}
	out.Spans = tr.spans
	layer := layerMS(tr.spans, dec.speed)

	// Rounds that stray from the defaults may warn (a refused cache does);
	// only their wall time is used.
	refHalf := mean(ref.BuildMS[:half])
	pair := func(name string, mutate func(*buildsys.Options)) (*roundResult, error) {
		r, err := e.round(variant{mutate: mutate, limit: half})
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", name, err)
		}
		return r, nil
	}
	off, err := pair("recorder-off", recorderOff)
	if err != nil {
		return nil, err
	}
	base := mean(off.BuildMS)
	for _, p := range []struct {
		metric string
		mutate func(*buildsys.Options)
	}{
		{"footprint.overhead_ms", func(o *buildsys.Options) { recorderOff(o); o.Footprint = true }},
		{"obs.trace_overhead_ms", func(o *buildsys.Options) { recorderOff(o); o.Trace = obs.NewTracer() }},
		{"cas.partitioned_overhead_ms", func(o *buildsys.Options) { recorderOff(o); o.CAS = refusing() }},
	} {
		r, err := pair(p.metric, p.mutate)
		if err != nil {
			return nil, err
		}
		L[p.metric] = mean(r.BuildMS) - base
		if p.metric == "cas.partitioned_overhead_ms" {
			L["cas.breaker_trips"] = float64(r.Counters[obs.CtrCASBreakerTrips]) / float64(half)
		}
	}
	stateless, err := pair("stateless", func(o *buildsys.Options) { o.Mode = compiler.ModeStateless })
	if err != nil {
		return nil, err
	}
	again, err := pair("stateful-again", nil)
	if err != nil {
		return nil, err
	}
	refP50 := median(ref.BuildMS[:half])
	L["compiler.stateless_build_ms_p50"] = median(stateless.BuildMS)
	L["compiler.stateful_speedup_pct"] = 100 * (median(stateless.BuildMS) - refP50) / median(stateless.BuildMS)
	aa := 100 * (median(again.BuildMS) - refP50) / refP50
	if aa < 0 {
		aa = -aa
	}
	L["compiler.aa_noise_pct"] = aa

	// A cold build: the same tree, no state at all.
	L["buildsys.cold_build_ms"] = nominalMS(func() {
		var cold *buildsys.Builder
		cold, err = buildsys.NewBuilder(buildsys.Options{Mode: compiler.ModeStateful, StateDir: filepath.Join(e.work, "cold", stateDirName)})
		if err == nil {
			err = buildClean(cold, e.base, true)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("cold build: %w", err)
	}

	// Oracles on the reference round, and the program it ends with.
	orc, err := newOracle(e.commits)
	if err != nil {
		return nil, err
	}
	failures, _, vmMS := orc.check(ref)
	out.Failures = append(out.Failures, failures...)
	L["vm.run_ms"] = vmMS
	for _, f := range ref.Final.Funcs {
		L["codegen.code_instrs"] += float64(len(f.Code))
	}

	// History.
	L["history.append_ms"] = layer[spanHistory] / m
	L["history.load_ms"] = ref.History.LoadMS
	L["history.overhead_ms"] = refHalf - base
	L["history.file_kib"] = ref.History.KiB
	L["history.records"] = float64(ref.History.Records)

	// Frontend.
	L["parser.parse_ms"] = layer[spanParse] / m
	L["types.check_ms"] = layer[spanCheck] / m
	L["irbuild.lower_ms"] = layer[spanLower] / m
	L["compiler.frontend_ms"] = L["parser.parse_ms"] + L["types.check_ms"] + L["irbuild.lower_ms"]
	L["parser.mb_per_s"] = rate(float64(dec.srcBytes)/1e6, layer[spanParse])
	L["irbuild.ir_values"] = float64(dec.irValues) / m

	// Pass manager, passes, fingerprints: counts and the builder's own
	// nanosecond counters from its registry, over the measured builds only.
	c := func(name string) float64 { return float64(ref.Counters[name]) }
	L["core.run_ms"] = layer[spanRun] / m
	L["core.pass_runs"] = c(obs.CtrPassRuns) / m
	L["core.pass_skips"] = c(obs.CtrPassSkipped) / m
	L["core.pass_skip_rate"] = share(c(obs.CtrPassSkipped), c(obs.CtrPassRuns))
	L["core.fp_mismatch"] = c(obs.CtrDecFPMismatch) / m
	L["core.not_dormant"] = c(obs.CtrDecNotDormant) / m
	L["passes.run_ms"] = ref.NS[obs.CtrPassRunNS] / 1e6 / m
	L["passes.saved_ms"] = ref.NS[obs.CtrPassSavedNS] / 1e6 / m
	L["passes.ir_values_out"] = float64(dec.irValuesOut) / m
	for pass, ns := range ref.PassNS {
		L["passes."+pass+"_ms"] = ns / 1e6 / m
	}
	L["fingerprint.hash_ms"] = ref.NS[obs.CtrHashNS] / 1e6 / m
	L["fingerprint.hashes"] = c(obs.CtrHashes) / m
	L["fingerprint.memo_hit_rate"] = share(c(obs.CtrBlocksMemoized), c(obs.CtrBlocksRehashed))
	if dec.funcsProbed > 0 {
		L["fingerprint.fn_ns"] = layer[spanProbe] * 1e6 / float64(dec.funcsProbed)
	}

	// State.
	L["state.load_ms"] = layer[spanLoad] / m
	L["state.loads"] = c(obs.CtrStateLoads) / m
	L["state.decode_mb_per_s"] = rate(float64(dec.loadBytes)/1e6, layer[spanLoad])
	L["state.save_ms"] = layer[spanSave] / m
	L["state.saves"] = c(obs.CtrStateSaves) / m
	L["state.encode_mb_per_s"] = rate(float64(dec.saveBytes)/1e6, layer[spanSave])
	L["state.bytes_per_unit"] = ref.StateKiB * 1024 / float64(len(e.base))

	L["codegen.compile_ms"] = layer[spanCompile] / m
	L["codegen.link_ms"] = layer[spanLink] / m

	// Shared cache.
	L["cas.fetch_ms"] = layer[spanFetch] / m
	L["cas.fetch_ms_p50"] = float64(ref.CASFetch.Quantile(0.5)) / 1e6 * median(ref.Speed)
	L["cas.fetches"] = (c(obs.CtrCASHits) + c(obs.CtrCASMisses)) / m
	L["cas.hit_rate"] = share(c(obs.CtrCASHits), c(obs.CtrCASMisses))
	L["cas.verify_failed"] = c(obs.CtrCASVerifyFailed) / m

	// The budget. Link and history run once per build; the per-unit steps
	// run on the worker pool, so a build that had n units to do waits for
	// their sum divided over min(workers, n) workers at best. What is left
	// of Build's wall is buildsys itself: hashing sources, scheduling,
	// assembling the report and the record.
	var serial, pooled float64
	for name, t := range layer {
		switch {
		case name == spanBuild || name == spanProbe:
		case serialSpans[name]:
			serial += t
		default:
			pooled += t
		}
	}
	var lanes float64
	for _, b := range ref.Builds {
		n := b.Compiled + b.Remote
		lanes += float64(max(1, min(runtime.GOMAXPROCS(0), n)))
	}
	wall := mean(ref.BuildMS)
	covered := serial/m + pooled/lanes
	L["buildsys.build_ms"] = wall
	L["buildsys.lanes"] = lanes / m
	L["buildsys.self_ms"] = wall - covered
	L["buildsys.unaccounted_pct"] = 100 * (wall - covered) / wall
	var compiled, cached, remote float64
	for _, b := range ref.Builds {
		compiled += float64(b.Compiled)
		cached += float64(b.Cached)
		remote += float64(b.Remote)
	}
	L["buildsys.units_compiled"] = compiled / m
	L["buildsys.units_cached"] = cached / m
	L["buildsys.units_remote"] = remote / m
	L["buildsys.worker_utilization"] = mean(ref.Utilization)
	L["buildsys.alloc_mb"] = float64(ref.AllocBytes) / (1 << 20) / m
	// Every *_ms above is at the machine's nominal speed; divide by this to
	// get what the clock read in the reference round.
	L["machine.speed"] = median(ref.Speed)

	for _, def := range perLayer {
		if _, ok := L[def.Name]; !ok {
			L[def.Name] = 0
		}
	}
	return out, nil
}

// rate is work per second given the time in ms (0 when no time was spent).
func rate(work, timeMS float64) float64 {
	if timeMS <= 0 {
		return 0
	}
	return work / (timeMS / 1e3)
}

// share is a / (a + b), 0 when both are 0.
func share(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// budgetLines renders the layer budget of a traced run: each row's time per
// build and the share of Build's wall it accounts for. Rows that run once
// per unit are summed over the build's units and spread over
// buildsys.lanes workers; the rows' wall times and buildsys.self_ms add up
// to buildsys.build_ms by construction.
func budgetLines(L map[string]float64) []string {
	type row struct {
		name   string
		pooled bool
	}
	rows := []row{{"history.append_ms", false}, {"codegen.link_ms", false}, {"buildsys.self_ms", false},
		{"state.load_ms", true}, {"compiler.frontend_ms", true}, {"core.run_ms", true},
		{"codegen.compile_ms", true}, {"state.save_ms", true}, {"cas.fetch_ms", true}}
	wall := func(r row) float64 {
		if r.pooled {
			return L[r.name] / L["buildsys.lanes"]
		}
		return L[r.name]
	}
	sort.SliceStable(rows, func(i, j int) bool { return wall(rows[i]) > wall(rows[j]) })
	out := []string{fmt.Sprintf("%-22s %9.3f ms  Build wall, %.2f lanes", "buildsys.build_ms", L["buildsys.build_ms"], L["buildsys.lanes"])}
	for _, r := range rows {
		if L[r.name] == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%-22s %9.3f ms  %5.1f%% of wall", r.name, L[r.name], 100*wall(r)/L["buildsys.build_ms"]))
	}
	return out
}

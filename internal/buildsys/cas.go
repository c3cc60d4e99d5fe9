package buildsys

// Shared-cache integration (internal/cas, docs/ARCHITECTURE.md). With
// Options.CAS set, every unit that misses the local object cache consults
// the shared store before compiling:
//
//	action key → blob key → verified blob → decoded object   (remote hit)
//
// and every honest local compile publishes its object (and, in the
// stateful modes, the unit's dormancy state) back. The degradation
// contract matches the state layer's: any CAS failure — transport error,
// quota refusal, poisoned blob, malformed entry — costs at most a local
// recompile with a warning and a counter; it can never produce a wrong
// build or fail one. A blob is accepted only if its bytes hash to its key
// AND its header names the exact action and unit asked about, so neither a
// poisoned blob nor a redirected action entry can ever be served.

import (
	"errors"
	"fmt"
	"time"

	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/compiler"
	"statefulcc/internal/core"
	"statefulcc/internal/history"
	"statefulcc/internal/obs"
	"statefulcc/internal/state"
)

// Action-key domains. The state domain carries the state-file layout
// version so a serialization change stops sharing instead of confusing an
// older decoder (the object payload's layout is covered by
// cas.BlobFormatVersion).
const casObjectDomain = "statefulcc/object"

var casStateDomain = fmt.Sprintf("statefulcc/state/v%d", state.FormatVersion)

// builderCAS is the builder's resolved shared-cache handle: the store and
// the pre-resolved client-side cas.* counters.
type builderCAS struct {
	store cas.Store

	hit, miss, verifyFailed *obs.Counter
	published, ioErrors     *obs.Counter
	fetch                   *obs.Histogram
}

// newBuilderCAS resolves the shared-cache handle (nil when no store is
// configured).
func newBuilderCAS(store cas.Store, reg *obs.Registry) *builderCAS {
	if store == nil {
		return nil
	}
	cc := &builderCAS{
		store:        store,
		hit:          reg.Counter(obs.CtrCASHits),
		miss:         reg.Counter(obs.CtrCASMisses),
		verifyFailed: reg.Counter(obs.CtrCASVerifyFailed),
		published:    reg.Counter(obs.CtrCASPublished),
		ioErrors:     reg.Counter(obs.CtrCASIOErrors),
		fetch:        reg.Histogram(obs.HistCASFetchNS),
	}
	// A network-backed store (HTTPCAS) counts its own wire adversity —
	// retries, breaker transitions; binding it to the builder's
	// registry lands those rows in /metrics and the flight recorder.
	if m, ok := store.(interface{ SetMetrics(*obs.Registry) }); ok {
		m.SetMetrics(reg)
	}
	return cc
}

// actionKey derives the unit's action key in domain (casObjectDomain or
// casStateDomain). It hashes the honest source bytes directly — a lying
// ContentHashHook (test-only) can corrupt the local declared channel, never
// the shared cache. Replay changes no byte that leaves the process, so
// every policy with Records keys as the stateful one: a one-shot client and
// a resident daemon share a cache.
func (b *Builder) actionKey(domain, unit string, src []byte) cas.Key {
	mode := b.opts.Mode
	if b.keepsRecords() {
		mode = core.Stateful
	}
	return cas.ActionKey(domain, core.StateVersion, cas.BlobFormatVersion, mode.String(), b.opts.Pipeline, unit, src)
}

// errBlobHeader is a blob whose bytes match its key but whose header names
// another kind, action or unit: a redirected or poisoned entry.
var errBlobHeader = errors.New("blob header mismatch")

// get is the one verified read of a blob: its bytes hash to blobKey
// (checked inside Get) and its header names exactly kind, action and unit,
// or its payload is not returned. The error is the store's, or
// errBlobHeader.
func (cc *builderCAS) get(kind int, action, blobKey cas.Key, unit string) ([]byte, error) {
	data, err := cc.store.Get(blobKey)
	if err != nil {
		return nil, err
	}
	blob, err := cas.DecodeBlob(data)
	if err != nil || blob.Kind != kind || blob.Action != action || blob.Unit != unit {
		return nil, errBlobHeader
	}
	return blob.Payload, nil
}

// put is the one publish: the blob of kind for action and unit, then the
// action entry naming it. A failure counts as a cas.io_error unless the
// store refused it by quota or an open breaker; it returns which call
// failed ("" for the blob, " action" for the entry) and its error.
func (cc *builderCAS) put(kind int, action cas.Key, unit string, payload []byte) (string, error) {
	blob := cas.EncodeBlob(kind, action, unit, payload)
	key := cas.Sum(blob)
	if err := cc.store.Put(key, blob); err != nil {
		if !errors.Is(err, cas.ErrQuota) && !errors.Is(err, cas.ErrUnavailable) {
			cc.ioErrors.Inc()
		}
		return "", err
	}
	if err := cc.store.ActionPut(action, key); err != nil {
		if !errors.Is(err, cas.ErrUnavailable) {
			cc.ioErrors.Inc()
		}
		return " action", err
	}
	return "", nil
}

// casFetch tries to serve job j, whose object action key is action and whose
// dormancy state was prev, from the shared cache. It returns the remote hit,
// or false to compile locally. Runs on a worker slot; every failure degrades
// to false after counting and warning. In the stateful mode a hit keeps the
// shared state when there is one, and prev when there is not: the unit's
// next compile is as warm as it would have been.
func (b *Builder) casFetch(j compileJob, action cas.Key, prev *core.UnitState) (unitResult, bool) {
	cc := b.cas
	start := time.Now()
	blobKey, err := cc.store.ActionGet(action)
	if err != nil {
		cc.miss.Inc()
		switch {
		case errors.Is(err, cas.ErrNotFound):
		case errors.Is(err, cas.ErrVerify):
			cc.verifyFailed.Inc()
			b.warnf("cas: unit %s: poisoned action entry rejected (recompiling locally)", j.name)
		case errors.Is(err, cas.ErrUnavailable):
			// Breaker open: the fast-fail was already charged to
			// cas.breaker_open by the client — a miss here, not an io_error
			// (nothing actually touched the wire).
			b.warnf("cas: backend unavailable (circuit open; compiling locally)")
		default:
			cc.ioErrors.Inc()
			b.warnf("cas: unit %s: action lookup: %v (recompiling locally)", j.name, err)
		}
		return unitResult{}, false
	}
	// The object is served only if it verifies and its payload decodes;
	// any failure is a counted miss, never a served object.
	payload, err := cc.get(cas.KindObject, action, blobKey, j.name)
	var obj *codegen.Object
	switch {
	case err == nil:
		if obj, err = cas.DecodeObject(payload); err != nil {
			cc.verifyFailed.Inc()
			b.warnf("cas: unit %s: object payload rejected: %v (recompiling locally)", j.name, err)
		}
	case errors.Is(err, errBlobHeader):
		cc.verifyFailed.Inc()
		b.warnf("cas: unit %s: blob header mismatch (poisoned entry rejected; recompiling locally)", j.name)
	case errors.Is(err, cas.ErrVerify):
		cc.verifyFailed.Inc()
		b.warnf("cas: unit %s: poisoned blob rejected (recompiling locally)", j.name)
	case errors.Is(err, cas.ErrNotFound):
		// Action entry outlived its blob (eviction race): plain miss.
	case errors.Is(err, cas.ErrUnavailable):
		b.warnf("cas: backend unavailable (circuit open; compiling locally)")
	default:
		cc.ioErrors.Inc()
		b.warnf("cas: unit %s: blob fetch: %v (recompiling locally)", j.name, err)
	}
	if obj == nil {
		cc.miss.Inc()
		return unitResult{}, false
	}
	cc.hit.Inc()
	cc.fetch.Observe(time.Since(start).Nanoseconds())
	r := unitResult{obj: obj, rec: history.UnitRecord{Cached: true, Remote: true}, ev: obs.UnitEvent{Outcome: obs.OutcomeRemote}}
	if b.keepsRecords() {
		if st := b.casFetchState(j); st != nil {
			// Persist the adopted state locally so the next process of this
			// client warms up without the network.
			r.state, r.stateBytes = st, len(b.saveUnitState(j.name, st))
		} else if prev != nil {
			r.state, r.stateBytes = prev, len(state.Marshal(prev))
		}
	}
	return r, true
}

// casFetchState fetches the unit's shared dormancy state (advisory: any
// failure returns nil and the unit just warms up locally). A fetched state
// carrying a quarantine is discarded — quarantine is a local trust
// verdict, not something to import — and its footprint is dropped, since
// traced read sets name the producing client's state paths.
func (b *Builder) casFetchState(j compileJob) *core.UnitState {
	cc := b.cas
	action := b.actionKey(casStateDomain, j.name, j.src)
	blobKey, err := cc.store.ActionGet(action)
	if err != nil {
		if errors.Is(err, cas.ErrVerify) {
			cc.verifyFailed.Inc()
		}
		return nil
	}
	payload, err := cc.get(cas.KindState, action, blobKey, j.name)
	if err != nil {
		switch {
		case errors.Is(err, errBlobHeader):
			cc.verifyFailed.Inc()
			b.warnf("cas: unit %s: state blob header mismatch (rejected)", j.name)
		case errors.Is(err, cas.ErrVerify):
			cc.verifyFailed.Inc()
			b.warnf("cas: unit %s: poisoned state blob rejected", j.name)
		}
		return nil
	}
	st, err := state.DecodeBytes(payload)
	if err != nil {
		cc.verifyFailed.Inc()
		b.warnf("cas: unit %s: state payload rejected: %v", j.name, err)
		return nil
	}
	if st.Quarantine != nil {
		return nil
	}
	st.Footprint = nil
	return st
}

// casPublish shares a completed honest compile under its object action
// key: the object blob always, the dormancy state (enc, the encoding its
// local save made) when the stateful modes produced a clean one.
func (b *Builder) casPublish(j compileJob, action cas.Key, res *compiler.UnitResult, enc []byte) {
	if res.Object == nil {
		return
	}
	if call, err := b.cas.put(cas.KindObject, action, j.name, cas.EncodeObject(res.Object)); err != nil {
		b.warnf("cas: unit %s: publish%s: %v (result not shared)", j.name, call, err)
		return
	}
	b.cas.published.Inc()

	if !b.keepsRecords() || res.State == nil || res.State.Quarantine != nil {
		return
	}
	if call, err := b.cas.put(cas.KindState, b.actionKey(casStateDomain, j.name, j.src), j.name, enc); err != nil {
		b.warnf("cas: unit %s: publish state%s: %v (state not shared)", j.name, call, err)
	}
}

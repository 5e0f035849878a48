package core

// Stream batching: how concurrent requests to the same title share
// cluster streams, selected by Edge.Batch. "unicast" shares nothing;
// "patch" is classic multicast patching (patching.go); "batch-prefix"
// is the edge-tier variant where a joiner whose prefix is cached at the
// edge taps an ongoing *suffix* stream and the edge relays the small
// catch-up gap — so a burst of hits on a hot title costs the cluster
// one suffix stream ("A Strategy to enable Prefix of Multicast VoD
// through dynamic buffer allocation", PAPERS.md). handleArrival tries
// the configured join after load shedding and before the admission
// controller.

import "slices"

// Names of the batch policies.
const (
	// BatchUnicast shares nothing: every admitted request gets its own
	// cluster stream. The default.
	BatchUnicast = "unicast"
	// BatchPatch is multicast patching: a joiner taps a whole-object
	// primary and receives the missed prefix as a short unicast patch
	// (see patching.go).
	BatchPatch = "patch"
	// BatchBatchPrefix batches at the edge: a joiner holding an edge
	// prefix hit taps an ongoing cluster suffix stream for the same
	// title; the edge relays the catch-up gap from its buffer, so the
	// join consumes no cluster bandwidth and no server slot at all.
	BatchBatchPrefix = "batch-prefix"
)

// BatchPolicyNames returns the batch-policy names, sorted.
func BatchPolicyNames() []string {
	return []string{BatchBatchPrefix, BatchPatch, BatchUnicast}
}

// HasBatchPolicy reports whether name is a batch policy.
func HasBatchPolicy(name string) bool {
	return slices.Contains(BatchPolicyNames(), name)
}

// BatchPolicyName returns the effective batch-policy name for this
// configuration: Edge.Batch when set, otherwise BatchUnicast.
func (c Config) BatchPolicyName() string {
	if c.Edge.Batch != "" {
		return c.Edge.Batch
	}
	return BatchUnicast
}

// tryBatchPrefixJoin implements BatchBatchPrefix. Only an arrival whose
// prefix is served at the edge can join (a miss needs the head from
// the cluster anyway, so it opens its own whole-object stream). The
// join taps the cheapest ongoing suffix stream of the same title whose
// progress — the catch-up the edge must relay from its buffer of the
// shared stream — fits both the batch window and the joiner's client
// buffer. Joining pins the primary like patching does (taps > 0: no
// workahead run-ahead, no migration); it consumes no server slot, so
// no admission test is needed. bufCap is the joining client's staging
// buffer and prefix the volume its edge node serves. On success the
// join's bookkeeping is done except the caller-owned per-class
// acceptance count and wait observations; on failure nothing changed.
func (e *Engine) tryBatchPrefixJoin(v int, t, bufCap, prefix float64) bool {
	if prefix <= 0 {
		return false
	}
	maxCatch := e.cfg.Edge.BatchWindow * e.cfg.ViewRate
	if bufCap < maxCatch {
		maxCatch = bufCap // the relayed catch-up is buffered client-side
	}
	// The suffix stream with the least progress (smallest relay) wins.
	// Every suffix stream of v starts prefix deep (the prefix size is
	// fixed per run), and the join takes no slot.
	primary, primarySent := e.cheapestPrimary(v, t, prefix, maxCatch, false)
	if primary == nil {
		return false
	}
	s := e.servers[primary.server]
	s.tap(primary)

	// The joiner's delivery is exactly: prefix (edge cache) + catch-up
	// (edge relay) + the rest of the suffix (shared stream).
	full := e.cat.Video(v).Size
	shared := full - prefix - primarySent
	e.metrics.Accepted++
	e.metrics.Completions++
	e.metrics.BatchedJoins++
	e.metrics.EdgeHits++
	e.metrics.EdgeMb += prefix + primarySent
	e.metrics.SharedMb += shared
	if e.audit != nil {
		e.auditFail(e.audit.EdgeServe(t, int32(v), prefix, primarySent, shared, 0, full, true))
	}
	// The tap pins the primary to the view rate (spare.go skips
	// taps > 0); re-run the allocation so the pin takes effect now.
	e.reschedule(s, t)
	return true
}

// cheapestPrimary is the join search patching and batch-prefix share:
// among the unfinished, unsuspended non-patch streams of video v that
// start startOff Mb into the object and have sent at most maxSent Mb,
// it returns the one with the least progress and that progress, ties
// to the lowest id. With slot set, the primary's server must also admit
// one more stream. Each candidate's server is synced to t.
func (e *Engine) cheapestPrimary(v int, t, startOff, maxSent float64, slot bool) (primary *request, sent float64) {
	for _, h := range e.holders(v) {
		s := e.servers[h]
		if s.failed {
			continue
		}
		ln := &s.ln
		synced := false
		for i := range ln.meta {
			if int(ln.meta[i].Video) != v || ln.flags[i]&SlotPatch != 0 || s.suspendedAt(i, t) {
				continue
			}
			r := s.active[i]
			if r.startOff != startOff {
				continue
			}
			if !synced {
				s.syncAll(t)
				synced = true
			}
			x := s.ln.sent[i]
			if s.finishedAt(i) || x > maxSent+dataEps {
				continue
			}
			if slot && !e.canAccept(s, t) {
				continue
			}
			if primary == nil || x < sent || (x == sent && r.id < primary.id) {
				primary, sent = r, x
			}
		}
	}
	return primary, sent
}

package core

// Fault tolerance beyond the paper's single-failure experiment: server
// recovery (warm or cold), a bounded admission retry queue, and
// degraded-mode playback for streams orphaned by a failure.
//
// Recovery un-fails a server. A warm recovery returns with storage
// intact; a cold recovery wipes it — the server's replicas (static and
// dynamic) are lost, and it re-enters the replica set only through the
// dynamic-replication path, which sees the wiped server as an empty,
// eligible copy target.
//
// The retry queue models client patience: a rejected arrival waits and
// re-attempts admission every Backoff seconds until Patience expires,
// at which point it reneges (accounted separately from up-front
// rejections). The queue is bounded; overflow rejects immediately.
//
// Degraded-mode playback models the client staging buffer surviving its
// server: when a stream on a failing server cannot be rescued via
// migration, it keeps playing from buffered data at the view rate and
// periodically tries to reconnect to a live replica holder. Only when
// the buffer runs dry with nowhere to reconnect does the viewer see a
// glitch and the stream count as dropped.

// retryEntry is one rejected arrival waiting in the admission retry
// queue. The client capabilities drawn at arrival are preserved so a
// later admission behaves exactly as an immediate one would have.
type retryEntry struct {
	id       int64
	video    int32
	class    int32 // traffic class (-1 on classless runs)
	bufCap   float64
	recvCap  float64
	prefix   float64 // edge-served prefix Mb, pinned at arrival (cache state moves on)
	arrived  float64 // arrival time, for the sojourn observation
	deadline float64 // reneging time: arrival + the class's patience
}

// Config accessors with their documented defaults.

func (e *Engine) retryMaxQueue() int {
	if q := e.cfg.Retry.MaxQueue; q > 0 {
		return q
	}
	return 64
}

func (e *Engine) retryPatience() float64 {
	if p := e.cfg.Retry.Patience; p > 0 {
		return p
	}
	return 300
}

func (e *Engine) retryBackoff() float64 {
	if b := e.cfg.Retry.Backoff; b > 0 {
		return b
	}
	return 10
}

func (e *Engine) degradedInterval() float64 {
	if d := e.cfg.Degraded.RetryInterval; d > 0 {
		return d
	}
	return 5
}

// handleRecovery returns a failed server to service. Cold recoveries
// additionally wipe its storage. The server's wake version was bumped
// at failure, so no stale events can fire; it starts idle and picks up
// load from future admissions and park reconnects.
func (e *Engine) handleRecovery(s *server, t float64, cold bool) {
	if !s.failed {
		return
	}
	s.failed = false
	s.version++
	e.metrics.Recoveries++
	if cold {
		e.metrics.ColdRecoveries++
		e.wipeStorage(s)
	}
	if e.obs != nil {
		e.obs.OnRecovery(t, int(s.id), cold)
	}
	if e.audit != nil {
		e.auditFail(e.audit.Recovery(t, s.id, cold))
	}
}

// wipeStorage removes server s from every replica set and zeroes its
// storage accounting. Static holdings are masked by materializing the
// runtime overlay (holders() consults extraHolders first), and
// staticWiped makes storageUsed ignore the static layout so the wiped
// server is an empty replication target.
func (e *Engine) wipeStorage(s *server) {
	if e.extraHolders == nil {
		e.extraHolders = make(map[int32][]int32)
	}
	for v := 0; v < e.cat.Len(); v++ {
		hs := e.holders(v)
		has := false
		for _, h := range hs {
			if h == s.id {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		kept := make([]int32, 0, len(hs)-1)
		for _, h := range hs {
			if h != s.id {
				kept = append(kept, h)
			}
		}
		e.extraHolders[int32(v)] = kept
	}
	e.extraUsed[s.id] = 0
	if e.staticWiped == nil {
		e.staticWiped = make([]bool, len(e.servers))
	}
	e.staticWiped[s.id] = true
}

// enqueueRetry parks a rejected arrival in the retry queue and
// schedules its first re-attempt. The caller has already checked the
// queue bound. Patience is the traffic class's (premium tiers wait
// longer), the global default on classless runs.
func (e *Engine) enqueueRetry(v int, t, bufCap, recvCap float64, class int32, prefix float64) {
	if e.retryQ == nil {
		e.retryQ = make(map[int64]*retryEntry)
	}
	e.nextRetryID++
	en := &retryEntry{
		id: e.nextRetryID, video: int32(v), class: class,
		bufCap: bufCap, recvCap: recvCap, prefix: prefix,
		arrived:  t,
		deadline: t + e.classPatience(class),
	}
	e.retryQ[en.id] = en
	e.metrics.RetriesQueued++
	e.pushRetry(en, t)
}

// pushRetry schedules the entry's next admission attempt: one backoff
// ahead, clamped to the reneging deadline so patience is exact.
func (e *Engine) pushRetry(en *retryEntry, t float64) {
	next := t + e.retryBackoff()
	if next > en.deadline {
		next = en.deadline
	}
	e.events.Push(next, event{kind: evRetry, req: en.id})
}

// handleRetry re-attempts admission for a queued request. Queued
// requests do not patch-join: the tap window is measured from the
// feeder's start, and a client that already waited would rarely fit it.
func (e *Engine) handleRetry(id int64, t float64) {
	en, ok := e.retryQ[id]
	if !ok {
		return
	}
	v := int(en.video)
	if e.admit(v, t, en.bufCap, en.recvCap, en.class, en.prefix) {
		delete(e.retryQ, id)
		e.metrics.RetriedAdmissions++
		e.observe(ObsWait, t-en.arrived)
		e.observe(ObsRetrySojourn, t-en.arrived)
		if en.prefix > 0 {
			e.observe(ObsEdgeWait, t-en.arrived)
		}
		return
	}
	if t+timeEps >= en.deadline {
		delete(e.retryQ, id)
		e.metrics.Reneged++
		if en.class >= 0 {
			e.metrics.ClassReneged[en.class]++
		}
		e.observe(ObsRetrySojourn, t-en.arrived)
		if e.obs != nil {
			e.obs.OnReject(t, v)
		}
		return
	}
	e.pushRetry(en, t)
}

// park moves a stream that survived its server's failure into
// degraded-mode playback: detached from the cluster, rate zero, playing
// from its client buffer (detach stored the lane state into the carry
// fields, which hold the fluid state while parked). The caller has
// verified eligibility.
func (e *Engine) park(r *request, s *server, t float64) {
	s.detach(r)
	r.carryRate = 0
	r.parked = true
	r.parkStart = t
	if e.parked == nil {
		e.parked = make(map[int64]*request)
	}
	e.parked[r.id] = r
	e.metrics.DegradedParked++
	e.nextParkTick(r, t)
}

// nextParkTick schedules the parked stream's next reconnect attempt:
// one retry interval ahead, pulled in to the buffer-dry instant so the
// glitch is observed exactly when playback stalls. Like server wakes,
// stale ticks are invalidated by a version bump rather than removal.
func (e *Engine) nextParkTick(r *request, t float64) {
	r.parkVer++
	next := t + e.degradedInterval()
	if !r.pausedView {
		if dry := t + r.bufferAt(t, e.cfg.ViewRate)/e.cfg.ViewRate; dry < next {
			next = dry
		}
	}
	e.events.Push(next, event{kind: evParkTick, req: r.id, version: r.parkVer})
}

// handleParkTick is a parked stream's reconnect attempt. Readmission is
// client-initiated (the stream reconnects through the admission
// selector — no migration machinery, no hops charge, no DRM fallback),
// tried before the dryness check so a stream reconnecting exactly at
// buffer exhaustion resumes seamlessly.
func (e *Engine) handleParkTick(id int64, ver uint64, t float64) {
	r, ok := e.parked[id]
	if !ok || ver != r.parkVer {
		return // stale tick superseded by a later park event
	}
	r.syncTo(t)
	bview := e.cfg.ViewRate
	// Reconnection goes through the request's class selector, which
	// re-checks feasibility against each candidate's *effective*
	// capacity — a browned-out holder with its reduced slots full is
	// skipped exactly like a failed one.
	best := e.classSelector(r.class).Select(e, int(r.video), t)
	if best != nil {
		d := e.cfg.Migration.SwitchDelay
		if d <= 0 || r.bufferAt(t, bview) >= d*bview-dataEps {
			best.syncAll(t)
			delete(e.parked, id)
			r.parked = false
			r.parkVer++
			best.attach(r)
			if d > 0 {
				best.setSuspend(r, t+d)
			}
			e.metrics.DegradedResumed++
			e.observe(ObsPark, t-r.parkStart)
			e.reschedule(best, t)
			return
		}
	}
	if r.bufferAt(t, bview) <= dataEps && !r.pausedView {
		// Buffer dry with nowhere to reconnect: the viewer sees the
		// interruption and the stream is lost.
		delete(e.parked, id)
		r.parked = false
		r.glitched = true
		e.metrics.DegradedGlitches++
		e.metrics.DroppedStreams++
		e.observe(ObsPark, t-r.parkStart)
		e.observe(ObsGlitch, (r.size-r.viewedAt(t, bview))/bview)
		e.retire(r)
		return
	}
	e.nextParkTick(r, t)
}

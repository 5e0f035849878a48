package core

// Brownouts: partial failures. Where a failure removes a server
// entirely, a brownout scales its effective bandwidth to a fraction
// f ∈ (0,1] of the configured capacity for a duration — an overheating
// host, a degraded NIC, a noisy neighbour. The engine models it by
// rewriting the server's bandwidth and the slot count derived from it;
// every downstream consumer (allocators, selectors, canAccept, audit
// snapshots) already reads those effective fields, so a browned-out
// server simply looks like a smaller one.
//
// Under minimum-flow scheduling, streams in excess of the reduced slot
// count cannot all be guaranteed b_view; the excess goes through the
// same rescue → park → drop ladder a failure applies (evictSlot0,
// shared with handleFailure). The intermittent scheduler over-subscribes
// by design, so it sheds nothing — its allocator pauses streams against
// their buffers within whatever bandwidth remains, and underruns are
// accounted as glitches as usual.

// evictOutcome is the disposition of one stream forced off its server.
type evictOutcome uint8

const (
	evictRescued evictOutcome = iota // migrated to a live replica holder
	evictParked                      // degraded-mode playback from buffer
	evictDropped                     // lost mid-play
)

// evictDownTo forces streams off s, one evictSlot0 at a time, until at
// most keep remain, and counts the outcomes. The server must be synced
// to t.
func (e *Engine) evictDownTo(s *server, t float64, keep int) (rescued, dropped, parked int) {
	for len(s.active) > keep {
		switch e.evictSlot0(s, t) {
		case evictRescued:
			rescued++
		case evictParked:
			parked++
		case evictDropped:
			dropped++
		}
	}
	return rescued, dropped, parked
}

// evictSlot0 forces the stream in slot 0 of s off the server through
// the rescue → park → drop ladder shared by failures and brownouts:
// migrate to the least-loaded live replica holder that can accept it
// (hops budget waived — a stream facing death is moved if at all
// possible), else park it into degraded-mode playback when configured
// and buffered data allows, else drop it. The server must be synced to
// t; removing the slot swaps the last stream into slot 0, so callers
// loop on the active count.
func (e *Engine) evictSlot0(s *server, t float64) evictOutcome {
	r := s.active[0]
	var target *server
	// Rescue is migration: it requires DRM to be configured (the
	// paper's fault-tolerance benefit comes from the ability to
	// switch servers mid-stream). The target is the least-loaded holder
	// whatever Config.Selector names; s itself never qualifies, since
	// it is failed or browned out above its slot count.
	if e.cfg.Migration.Enabled && e.migratable(s, 0, t, true) {
		target = leastLoadedSelector{}.Select(e, int(r.video), t)
	}
	if target == nil {
		// No rescue target. A stream with buffered data can play on
		// in degraded mode and try to reconnect later; patch trees
		// are pinned and mid-switch streams have no data flowing.
		if e.cfg.Degraded.Enabled && s.ln.flags[0]&slotPinned == 0 &&
			!s.suspendedAt(0, t) && !s.finishedAt(0) &&
			s.bufferOf(0, t, e.cfg.ViewRate) > dataEps {
			e.park(r, s, t)
			return evictParked
		}
		// No home for this stream: it is dropped mid-play.
		e.metrics.DroppedStreams++
		e.retire(r, s)
		return evictDropped
	}
	target.syncAll(t)
	e.metrics.RescuedStreams++
	e.migrate(r, s, target, t, true)
	e.reschedule(target, t)
	return evictRescued
}

// handleBrownout scales server s's effective capacity to frac and
// sheds any minimum-flow excess. Schedule-time validation guarantees s
// is up and undimmed when the event fires; the guard mirrors
// handleFailure's defensiveness.
func (e *Engine) handleBrownout(s *server, frac, t float64) {
	if s.failed || s.dimFrac > 0 {
		return
	}
	s.syncAll(t)
	s.dimFrac = frac
	s.bandwidth = e.cfg.ServerBandwidth[s.id] * frac
	s.slots = int(s.bandwidth/e.cfg.ViewRate + timeEps)
	e.metrics.Brownouts++
	// Completed streams and copies release their slots before the
	// over-capacity check.
	e.releaseFinished(s, t)
	rescued, dropped, parked := 0, 0, 0
	if !e.cfg.Intermittent {
		rescued, dropped, parked = e.evictDownTo(s, t, s.slots)
	}
	if e.audit != nil {
		e.auditFail(e.audit.Brownout(t, s.id, frac, rescued, dropped, parked))
	}
	e.reschedule(s, t)
}

// handleBrownoutEnd restores a browned-out server to its configured
// capacity. The restored values are computed from the config exactly as
// Reset computes them, so a restored server is bit-identical to one
// that never dimmed.
func (e *Engine) handleBrownoutEnd(s *server, t float64) {
	if s.failed || s.dimFrac == 0 {
		return
	}
	s.syncAll(t)
	s.dimFrac = 0
	s.bandwidth = e.cfg.ServerBandwidth[s.id]
	s.slots = e.cfg.Slots(int(s.id))
	e.metrics.BrownoutRestores++
	if e.audit != nil {
		e.auditFail(e.audit.BrownoutEnd(t, s.id))
	}
	e.reschedule(s, t)
}

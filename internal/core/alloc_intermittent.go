package core

import "semicont/internal/core/alloc"

// Intermittent scheduling (Section 3.3). The paper restricts itself to
// minimum-flow algorithms because "the decision procedure for the
// optimal intermittent algorithm is impractical to apply in real time";
// this file implements the natural heuristic member of the intermittent
// class so the restriction can be evaluated quantitatively:
//
//   - a stream whose client buffer holds more than ResumeGuard seconds
//     of playback may be paused (rate 0) while the client plays from
//     its buffer;
//   - bandwidth goes to streams in ascending-buffer order (the most
//     urgent first), so paused streams resume as they drain;
//   - admission only requires the *urgent* streams (buffer below the
//     guard) to fit in the minimum-flow slots, so a server can carry
//     more streams than ⌊B/b_view⌋.
//
// The heuristic is not safe: urgent streams can outnumber slots later
// (paused streams drain concurrently while nothing finishes), in which
// case some stream's buffer runs dry mid-play. The engine counts those
// streams in Metrics.GlitchedStreams — the ablation experiment shows
// the acceptance gain intermittent scheduling buys and the glitches it
// costs, which is the paper's justification for minimum-flow.

// allocateIntermittent runs the heuristic on server s at time t —
// bandwidth in ascending-buffer order, urgent streams first, then the
// rest while bandwidth lasts, the leftover streams paused — then feeds
// copy jobs, and returns the bandwidth left for staging, which allocate
// spreads under the configured workahead discipline. Requests must be
// synced to t. Like minFlowRates it opens the wake round and writes
// every slot's key at the rate decision: suspension deadlines in the
// gather, the resume-guard key for every slot the feed leaves at rate
// zero (a paused-full viewer's buffer still drains once it resumes, so
// it gets the same guard key), and wakeKeyServing for the slots it
// serves.
func (e *Engine) allocateIntermittent(s *server, t float64) float64 {
	bview := e.cfg.ViewRate
	ln := &s.ln
	e.cand.Reset(false)
	ln.beginRound()
	for i := range ln.rate {
		if s.suspendedAt(i, t) {
			ln.rate[i] = 0
			ln.setWake(int32(i), ln.susp[i])
			continue
		}
		r := s.active[i]
		// A negative raw buffer means playback outpaced delivery at some
		// point since the last allocation: the client stalled. Record
		// the glitch on first sight (the raw buffer stays negative until
		// the stream receives more than b_view again, so the first
		// allocation after the underflow always observes it).
		if !r.glitched && ln.sent[i]-r.viewedAt(t, bview) < -dataEps {
			r.glitched = true
			e.metrics.GlitchedStreams++
			// The catch-up deficit at detection: how far playback ran
			// ahead of delivery, in seconds of viewing.
			e.observe(ObsGlitch, (r.viewedAt(t, bview)-ln.sent[i])/bview)
		}
		e.cand.Add(s.bufferOf(i, t, bview), r.id, int32(i))
	}
	// Ascending-buffer feed via heap selection. Once the bandwidth no
	// longer covers a full b_view slot, nothing downstream can consume
	// any (paused-full streams never do), so every remaining stream
	// pauses: an order-free operation handled off-heap.
	avail := s.bandwidth
	e.cand.Init()
	for e.cand.Len() > 0 {
		ent := e.cand.Pop()
		i := ent.Pos
		if e.pausedFullAt(s, int(i), t) {
			ln.rate[i] = 0
			ln.setWake(i, e.wakeKeyPaused(ent.Key, t))
			continue
		}
		if avail < bview-dataEps {
			e.pauseIntermittent(s, i, ent.Key, t)
			break
		}
		ln.rate[i] = bview
		avail -= bview
		ln.setWake(i, e.wakeKeyServing(s, s.active[i], int(i), t))
	}
	for _, rest := range e.cand.Rest() {
		if e.pausedFullAt(s, int(rest.Pos), t) {
			ln.rate[rest.Pos] = 0
			ln.setWake(rest.Pos, e.wakeKeyPaused(rest.Key, t))
			continue
		}
		e.pauseIntermittent(s, rest.Pos, rest.Key, t)
	}
	if e.audit != nil {
		e.reportIntermittent(s, t)
	}
	return e.allocateCopies(s, t, avail)
}

// pauseIntermittent pauses slot i, which the feed could not serve. buf
// is the slot's buffer level at time t (its gather key). A stream
// paused with a dry buffer cannot keep playing: the heuristic has
// over-admitted, so the glitch is recorded once.
func (e *Engine) pauseIntermittent(s *server, i int32, buf, t float64) {
	s.ln.rate[i] = 0
	s.ln.setWake(i, e.wakeKeyPaused(buf, t))
	r := s.active[i]
	if !r.glitched && buf <= dataEps && !s.finishedAt(int(i)) {
		r.glitched = true
		e.metrics.GlitchedStreams++
		// The pause itself is the detection point: the buffer just hit
		// empty, so the deficit observed here is zero.
		e.observe(ObsGlitch, 0)
	}
}

// reportIntermittent hands the IntermittentOrder tap the grants of the
// feed that just ran on s at time t: the streams it popped, in pop
// order, then the rest it paused off-heap, unordered. Each grant reads
// the rate the feed left in the lane; paused-full is re-derived, since
// the feed writes neither the buffer nor the viewer state it reads.
// Reporting after the loop keeps audit state out of it: appending
// grants inside it cost BenchmarkIntermittent 2–4% at k = 16 and 256.
func (e *Engine) reportIntermittent(s *server, t float64) {
	grants := e.intermitGrantBuf[:0]
	popped, rest := e.cand.Popped(), e.cand.Rest()
	for j := len(popped) - 1; j >= 0; j-- {
		grants = append(grants, e.intermitGrant(s, popped[j], t))
	}
	for _, ent := range rest {
		grants = append(grants, e.intermitGrant(s, ent, t))
	}
	e.intermitGrantBuf = grants
	e.auditFail(e.audit.IntermittentOrder(t, s.id, grants))
}

func (e *Engine) intermitGrant(s *server, ent alloc.Entry, t float64) IntermittentGrant {
	return IntermittentGrant{
		Request: ent.ID, Buffer: ent.Key, Rate: s.ln.rate[ent.Pos],
		PausedFull: e.pausedFullAt(s, int(ent.Pos), t),
	}
}

// canAccept is the admission test for one server: minimum-flow slot
// availability normally, urgent-stream availability in intermittent
// mode. The urgent count reads buffer levels, so intermittent mode
// first syncs s to t (a no-op when it already is).
func (e *Engine) canAccept(s *server, t float64) bool {
	if s.failed {
		return false
	}
	if !e.cfg.Intermittent {
		return s.hasSlot()
	}
	s.syncAll(t)
	return e.urgentCount(s, t)+1 <= s.slots
}

// urgentCount returns the number of streams on s that must be
// transmitting: unfinished, not suspended, with less than ResumeGuard
// seconds of playback buffered.
func (e *Engine) urgentCount(s *server, t float64) int {
	guard := e.resumeGuard() * e.cfg.ViewRate
	n := 0
	for i, r := range s.active {
		if s.suspendedAt(i, t) || s.finishedAt(i) || r.pausedView {
			// Paused viewers consume nothing until they resume.
			continue
		}
		if s.bufferOf(i, t, e.cfg.ViewRate) < guard {
			n++
		}
	}
	return n
}

// resumeGuard returns the configured guard with its 30 s default.
func (e *Engine) resumeGuard() float64 {
	if e.cfg.ResumeGuard > 0 {
		return e.cfg.ResumeGuard
	}
	return 30
}

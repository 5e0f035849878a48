package core

// server is one data source in the cluster. Storage is decided by the
// static placement (a server only ever transmits videos it holds); the
// engine tracks only the transmission side. The engine's park lane is
// a server value too, outside Engine.servers, so parked slots use the
// same per-slot methods; only its active list and lane are used.
type server struct {
	id        int32
	bandwidth float64 // Mb/s
	slots     int     // ⌊bandwidth / b_view⌋, the minimum-flow capacity

	active []*request // unfinished requests currently assigned here
	copies []*copyJob // replica transfers sourced from this server

	// ln is the server's structure-of-arrays data plane: the active
	// requests' per-slot stream state and the stored wake keys,
	// parallel to the active slice (see lane.go).
	ln lane

	// version lazily invalidates scheduled wake events: an event whose
	// version no longer matches is stale and is dropped on pop.
	version uint64

	failed bool

	// dimFrac is the brownout state: 0 when the server runs at full
	// capacity, otherwise the fraction f ∈ (0,1] its effective bandwidth
	// (and the slots derived from it) is scaled to. The base capacity
	// stays in Config.ServerBandwidth; bandwidth/slots above always hold
	// the effective values, so allocators, selectors, and invariants
	// need no brownout awareness.
	dimFrac float64
}

// hasSlot reports whether the server can admit one more stream under
// minimum-flow admission: the sum of view bandwidths of its unfinished
// requests plus one more must not exceed its capacity.
func (s *server) hasSlot() bool {
	return !s.failed && len(s.active) < s.slots
}

// load returns the number of unfinished requests assigned to s. The
// controller assigns new arrivals to the replica holder with the
// smallest load (Section 3.2's request assignment rule).
func (s *server) load() int { return len(s.active) }

// reset empties s for a run as server id, keeping the capacity of its
// slices.
func (s *server) reset(id int32, bandwidth float64, slots int) {
	clear(s.active)
	clear(s.copies)
	ln := s.ln
	ln.reset()
	*s = server{id: id, bandwidth: bandwidth, slots: slots, active: s.active[:0], copies: s.copies[:0], ln: ln}
}

// attach adds the new stream r to the active set and writes its first
// slot as of time t: nothing sent, rate 0, the viewer at 0, and the
// client's caps.
func (s *server) attach(r *request, t, bufCap, recvCap float64) {
	var f uint8
	if r.isPatch {
		f = SlotPatch
	}
	s.ln.push(0, 0, t, 0, r.size, f, SlotMeta{ID: r.id, BufCap: bufCap, RecvCap: recvCap, ViewT: t, Video: r.video})
	s.link(r)
}

// move carries r's slot, every column as it stands, to the lane of to
// and removes it from s: the one transfer DRM moves, rescues, parks
// and reconnects share.
func (s *server) move(r *request, to *server) {
	i, ln := r.slot, &s.ln
	to.ln.push(ln.rate[i], ln.sent[i], ln.last[i], ln.susp[i], ln.size[i], ln.flags[i], ln.meta[i])
	s.detach(r)
	to.link(r)
}

// link appends r to the active set, beside the slot just pushed.
func (s *server) link(r *request) {
	r.server = s.id
	r.slot = int32(len(s.active))
	s.active = append(s.active, r)
}

// detach removes r and its slot in O(1) by swapping the last stream
// into its place.
func (s *server) detach(r *request) {
	i := int(r.slot)
	last := len(s.active) - 1
	s.ln.remove(i, last)
	s.active[i] = s.active[last]
	s.active[i].slot = int32(i)
	s.active[last] = nil
	s.active = s.active[:last]
	r.slot = -1
}

// syncAll advances every active request's and copy job's fluid state
// to time t.
func (s *server) syncAll(t float64) {
	s.syncStreams(t)
	for _, c := range s.copies {
		c.syncTo(t)
	}
}

// syncStreams advances the active requests' fluid state to time t: one
// pass over the lane's contiguous arrays. A slot at rate 0 only moves
// its sync time; sent is clamped at size against float accumulation
// error.
func (s *server) syncStreams(t float64) {
	lastA := s.ln.last
	// Reslicing to lastA's length lets the compiler drop the per-element
	// bounds checks on the parallel arrays.
	rateA := s.ln.rate[:len(lastA)]
	sentA := s.ln.sent[:len(lastA)]
	sizeA := s.ln.size[:len(lastA)]
	for i, last := range lastA {
		if t <= last {
			continue
		}
		if rate := rateA[i]; rate > 0 {
			sent := sentA[i] + rate*(t-last)
			if sent > sizeA[i] {
				sent = sizeA[i]
			}
			sentA[i] = sent
		}
		lastA[i] = t
	}
}

// Per-slot fluid reads.

// remainingOf returns slot i's untransmitted volume.
func (s *server) remainingOf(i int) float64 {
	rem := s.ln.size[i] - s.ln.sent[i]
	if rem < 0 {
		return 0
	}
	return rem
}

// finishedAt reports whether slot i's transmission is complete.
func (s *server) finishedAt(i int) bool { return s.remainingOf(i) <= dataEps }

// suspendedAt reports whether slot i is mid-switch at time t.
func (s *server) suspendedAt(i int, t float64) bool { return s.ln.susp[i] > t+timeEps }

// bufferOf returns slot i's client buffer occupancy at time t. The
// slot must be synced to t.
func (s *server) bufferOf(i int, t, bview float64) float64 {
	b := s.ln.sent[i] - s.ln.viewedAt(i, t, bview)
	if b < 0 {
		return 0 // float noise only; the model guarantees buffer ≥ 0
	}
	return b
}

// Per-slot writes of the stream state.

// setSuspend sets r's suspension deadline (a mid-switch blackout,
// written after the move by migration and park reconnection).
func (s *server) setSuspend(r *request, until float64) { s.ln.susp[r.slot] = until }

// pauseView freezes slot i's playback at time t.
func (s *server) pauseView(i int, t, bview float64) {
	ln := &s.ln
	ln.meta[i].ViewOff = ln.viewedAt(i, t, bview)
	ln.meta[i].ViewT = t
	ln.flags[i] |= SlotPaused
}

// resumeView restarts slot i's playback at time t.
func (s *server) resumeView(i int, t float64) {
	s.ln.meta[i].ViewT = t
	s.ln.flags[i] &^= SlotPaused
}

// tap records one more multicast receiver fed from r's transmission,
// which pins its slot.
func (s *server) tap(r *request) {
	r.taps++
	s.ln.flags[r.slot] |= SlotTapped
}

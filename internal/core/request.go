package core

// Numerical tolerances for the fluid model. Data volumes are in Mb
// (up to ~2×10^4 per object) and times in seconds (up to ~4×10^6 per
// run); float64 leaves ample headroom at these scales.
const (
	dataEps = 1e-6 // Mb: volumes closer than this are equal
	timeEps = 1e-9 // s: times closer than this are equal
)

// request is the engine's per-stream state. Between events a request
// transmits at the piecewise-constant rate of its lane slot; sent data
// is synced lazily to the current time before any decision reads it.
//
// Playback starts at admission and consumes data at the view rate
// except while the viewer has paused (the interactivity extension), so
//
//	viewed(t) = viewOffset                       while paused
//	          = viewOffset + (t − viewSyncT)·b_view  otherwise (≤ size)
//	buffer(t) = sent(t) − viewed(t)   ∈ [0, bufCap]
//
// A request is "unfinished" while sent < size; the server releases its
// bandwidth the moment transmission completes, even though the client
// keeps playing from its buffer afterwards.
//
// Ownership: while the request is attached to a server, the server's
// lane holds, at index slot, every field a per-slot scan reads (see
// lane.go). Its mutable state — the fluid fields (rate, sent, last,
// suspension deadline), the viewer state (viewOffset, viewSyncT,
// pausedView) and glitched — lives there: read and write it there. The
// request's copies are the detached representation only: server.detach
// stores the lane slot into them, attach loads them back, and the
// methods on request (syncTo, viewedAt, bufferAt, pauseViewing,
// resumeViewing) operate on them — legal only for detached requests
// (parked streams playing from their buffers, freelist entries, and
// requests not yet attached). The lane mirrors the rest (id, video,
// size, client caps, hops, isPatch, taps > 0), which cannot change
// while attached, except that taps grows through server.tap.
type request struct {
	// Fields are grouped by size, widest first, so the struct packs
	// without padding.

	id    int64
	size  float64 // Mb
	start float64 // admission == playback start time

	// Carried hot fields, valid only while detached (see above).
	carrySent float64 // Mb transmitted, valid as of carryLast
	carryRate float64 // current allocation, Mb/s
	carryLast float64 // time carrySent was last synced
	// carrySusp > carryLast marks a stream mid-switch: it holds a slot
	// on the target server but receives no data until this time.
	carrySusp float64

	// Viewer playback state, valid only while detached (see above).
	// viewOffset is the data consumed as of viewSyncT; while pausedView
	// is set the offset is frozen.
	viewOffset float64
	viewSyncT  float64

	// Per-client capabilities, set at admission from the engine config
	// or the request's drawn client class.
	bufCap  float64 // staging buffer, Mb (0 = no staging)
	recvCap float64 // receive bandwidth cap, Mb/s (0 = unlimited)

	// startOff > 0 marks a cluster suffix stream behind the edge tier:
	// the first startOff Mb of the object were served from an edge
	// cache and size covers only the remainder. Cold bookkeeping for
	// accounting and batch-join eligibility; the fluid model treats
	// the stream as an ordinary object of its (suffix) size.
	startOff float64

	// Degraded-mode playback (see parked): parkVer lazily invalidates
	// scheduled park ticks the same way server.version invalidates
	// wakes.
	parkVer   uint64
	parkStart float64 // park instant, for the degraded-park observation

	video  int32
	server int32 // current data source
	hops   int32 // lifetime migrations so far

	// class is the request's traffic class index (Config.Classes), -1
	// on classless runs. It rides the request so retry re-attempts and
	// parked-stream reconnects keep using the class's selector and
	// patience.
	class int32

	// Patching state: isPatch marks a unicast prefix stream whose
	// remainder arrives via a multicast tap; taps counts dependents
	// fed from this stream's transmission. Either pins the stream to
	// its server (the multicast tree must not move).
	taps int32

	// slot is the request's index within its server's active slice,
	// maintained for O(1) removal.
	slot int32

	pausedView bool // see viewOffset
	isPatch    bool // see taps
	// glitched marks a stream whose buffer ran dry while paused by the
	// intermittent scheduler — a playback interruption the client saw.
	// Valid only while detached; attached streams keep it in the lane.
	glitched bool
	// parked marks a stream in degraded-mode playback: detached from
	// every server after a failure, draining its client buffer while it
	// retries reconnection.
	parked bool
}

// syncTo advances the carried fluid state to time t. Detached requests
// only (attached streams are advanced by server.syncAll on the lane).
func (r *request) syncTo(t float64) {
	if t <= r.carryLast {
		return
	}
	if r.carryRate > 0 {
		r.carrySent += r.carryRate * (t - r.carryLast)
		if r.carrySent > r.size {
			r.carrySent = r.size // clamp float accumulation error
		}
	}
	r.carryLast = t
}

// viewedAt returns the data consumed by playback at time t. Detached
// requests only (attached streams: lane.viewedAt).
func (r *request) viewedAt(t float64, bview float64) float64 {
	return viewedFrom(r.viewOffset, r.viewSyncT, r.size, t, bview, r.pausedView)
}

// viewedFrom is the playback position at time t of a viewer that had
// consumed off Mb of a size-Mb object at syncT and has since played at
// bview unless paused. request.viewedAt and lane.viewedAt share it, so
// the carried and the lane viewer state give bit-identical positions.
func viewedFrom(off, syncT, size, t, bview float64, paused bool) float64 {
	v := off
	if !paused {
		v += (t - syncT) * bview
	}
	if v < 0 {
		return 0
	}
	if v > size {
		return size
	}
	return v
}

// pauseViewing freezes playback at time t. Detached requests only
// (attached streams: server.pauseView).
func (r *request) pauseViewing(t float64, bview float64) {
	r.viewOffset = r.viewedAt(t, bview)
	r.viewSyncT = t
	r.pausedView = true
}

// resumeViewing restarts playback at time t. Detached requests only
// (attached streams: server.resumeView).
func (r *request) resumeViewing(t float64) {
	r.viewSyncT = t
	r.pausedView = false
}

// bufferAt returns the client buffer occupancy at time t from the
// carried state. Detached requests only; must be synced to t.
func (r *request) bufferAt(t float64, bview float64) float64 {
	b := r.carrySent - r.viewedAt(t, bview)
	if b < 0 {
		return 0 // float noise only; the model guarantees buffer ≥ 0
	}
	return b
}

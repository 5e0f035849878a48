package core

// Numerical tolerances for the fluid model. Data volumes are in Mb
// (up to ~2×10^4 per object) and times in seconds (up to ~4×10^6 per
// run); float64 leaves ample headroom at these scales.
const (
	dataEps = 1e-6 // Mb: volumes closer than this are equal
	timeEps = 1e-9 // s: times closer than this are equal
)

// request is the engine's per-stream record: who the stream is and
// where its state lives. The state itself — the fluid state (rate,
// sent, last sync, suspension deadline), the viewer position, the
// client caps and the hop count — lives in one lane slot from
// admission to retirement: its server's lane while it transmits, the
// engine's park lane while it plays from its buffer in degraded mode
// (see lane.go). Between events a stream transmits at the
// piecewise-constant rate of its slot; sent data is synced lazily to
// the current time before any decision reads it.
//
// Playback starts at admission and consumes data at the view rate
// except while the viewer has paused (the interactivity extension), so
//
//	viewed(t) = viewOff                      while paused
//	          = viewOff + (t − viewT)·b_view  otherwise (≤ size)
//	buffer(t) = sent(t) − viewed(t)   ∈ [0, bufCap]
//
// A request is "unfinished" while sent < size; the server releases its
// bandwidth the moment transmission completes, even though the client
// keeps playing from its buffer afterwards.
//
// The slot mirrors id, video, size, isPatch and taps > 0, which cannot
// change while the stream lives, except that taps grows through
// server.tap.
type request struct {
	// Fields are grouped by size, widest first, so the struct packs
	// in 72 bytes.

	id    int64
	size  float64 // Mb
	start float64 // admission == playback start time

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
	server int32 // current data source; -1, the park lane's id, while parked

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

	// slot is the request's index within its lane's active slice,
	// maintained for O(1) removal.
	slot int32

	isPatch bool // see taps
	// parked marks a stream in degraded-mode playback: its slot sits in
	// the engine's park lane after a failure, draining its client
	// buffer while it retries reconnection.
	parked bool
}

// viewedFrom is the playback position at time t of a viewer that had
// consumed off Mb of a size-Mb object at syncT and has since played at
// bview unless paused. lane.viewedAt, the spare gather and the audit
// snapshot share it, so every reader of a viewer position gets
// bit-identical values.
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

package core

// Patching (Gao & Towsley; Sen et al. — cited by the paper's related
// work, and "patching … stream merging" is listed as future work in
// Section 6). A client arriving shortly after another request for the
// same video *taps* that ongoing transmission (a multicast join, free
// of server bandwidth) and receives only the part it missed — the
// prefix the primary has already sent — as a short unicast "patch".
// The tapper buffers the shared stream while it plays the patch, so
// patching needs exactly the client staging disk this paper
// introduces: the join is legal only if the missed prefix fits in the
// client's buffer.
//
// Model, in this simulator's fluid terms:
//
//   - any unfinished non-patch stream can serve as a primary; joining
//     pins its rate to b_view (a multicast sender cannot run ahead of
//     its slowest receiver's buffer), which minimum-flow provides;
//   - the joiner is admitted on the primary's server as a unicast
//     request of size primary.sent (the missed prefix), provided the
//     prefix fits both the patch window and the client buffer;
//   - the shared remainder costs no server bandwidth and is accounted
//     in Metrics.SharedMb; the patch occupies a slot only until it
//     completes (sent/b_view seconds), which is the whole benefit.
//
// Simplifications, documented: streams involved in patching do not
// migrate (the multicast tree is pinned), and patching is mutually
// exclusive with viewer interactivity and intermittent scheduling
// (both can stall a primary mid-stream, which would starve its taps).

// patchWindow returns the patch window, Edge.BatchWindow, with its
// 20-minute default.
func (e *Engine) patchWindow() float64 {
	if w := e.cfg.Edge.BatchWindow; w > 0 {
		return w
	}
	return 1200
}

// tryPatchJoin attempts to admit the arrival for video v by tapping an
// ongoing transmission (Edge.Batch = "patch"). bufCap is the joining
// client's staging buffer. It reports whether the arrival joined.
func (e *Engine) tryPatchJoin(v int, t float64, bufCap, recvCap float64) bool {
	maxPrefix := e.patchWindow() * e.cfg.ViewRate
	if bufCap < maxPrefix {
		maxPrefix = bufCap
	}
	if maxPrefix <= 0 {
		return false
	}
	// The smallest missed prefix wins. Patching never runs behind the
	// edge tier, so every primary starts at offset 0, and the patch
	// takes a slot on the primary's server.
	primary, primarySent := e.cheapestPrimary(v, t, 0, maxPrefix, true)
	if primary == nil {
		return false
	}
	s := e.servers[primary.server]

	prefix := primarySent
	if prefix < dataEps {
		prefix = dataEps // a pure join still needs a (vanishing) patch
	}
	joiner := e.newRequest(v, t)
	joiner.size = prefix
	joiner.isPatch = true
	s.attach(joiner, t, bufCap, recvCap)
	s.tap(primary)

	full := e.cat.Video(v).Size
	e.metrics.Accepted++
	e.metrics.PatchedJoins++
	e.metrics.AcceptedBytes += prefix
	e.metrics.SharedMb += full - prefix
	if e.obs != nil {
		e.obs.OnAdmit(t, joiner.id, v, int(s.id), false)
	}
	e.reschedule(s, t)
	return true
}

package core

import "math"

// lane is a structure-of-arrays data plane: every per-stream field a
// per-slot scan reads, and the stored wake keys, held in parallel
// slices indexed by request slot. The pointer slice server.active
// carries the rest: what the scans never read (admission time, class,
// park state) and what they read only for a slot that passed the
// lane's tests (a join's edge start offset, a tapped slot's tap
// count). The per-event passes — syncAll, the allocation feeds, the
// wake query, the DRM planner, the audit snapshot — stream contiguous
// arrays and load a *request only for the slot they act on.
//
// A stream's slot is the only home of its state from admission to
// retirement. server.attach writes a new stream's slot; server.move
// carries a slot, every column as it stands, from one lane to another
// (a DRM move, a rescue, a park, a reconnect); retirement reads the
// slot and server.detach removes it. Every server has a lane, and the
// engine owns one more, the park lane, which holds the slots of
// streams in degraded-mode playback at rate 0: no selector, allocation
// round or audit snapshot sees it.
//
// What every allocation round reads of every slot has a column of its
// own: the fluid state and the flag bits. The rest, which only the
// rarer scans read (the spare gather past its prefix shortcut, the DRM
// planner, the audit snapshot), is one SlotMeta record per slot. The
// columns and records, and who writes them:
//
//	rate, sent, last, susp   fluid state: syncStreams, the allocation
//	                         rounds, setSuspend, park
//	size                     the object (suffix) size, fixed
//	wake                     the allocation rounds (see below)
//	flags                    SlotPaused (pauseView, resumeView),
//	                         SlotGlitched (the intermittent feed),
//	                         SlotPatch (fixed), SlotTapped (server.tap,
//	                         beside request.taps++)
//	meta.ID, Video           fixed
//	meta.BufCap, RecvCap     client caps, fixed at admission
//	meta.Hops                migrate counts each DRM move and rescue
//	meta.ViewOff, ViewT      viewer position: pauseView and resumeView
//
// Columns grow by append, so a lane reserves only what it has held.
// The audit snapshot reads the columns in place (AuditServerState);
// only the engine writes them.
//
// Wake-index contract (see wake.go for the scheduling semantics): each
// slot stores the request's wake key — the earliest of its finish,
// buffer-full, and resume-guard candidates, computed by the allocation
// round that assigned its current rate; copy jobs store theirs on the
// copyJob. wakeMin/wakeArg maintain the min over all stored keys
// incrementally: beginRound resets them, setWake folds each write, and
// anything that removes or raises a key marks the index dirty so the
// next query lazily repairs it by rescanning the stored keys (compare
// only — the keys themselves are never recomputed outside a round,
// which is what keeps the incremental answer bit-identical to a
// from-scratch min over the same keys).
type lane struct {
	rate  []float64  // current allocation, Mb/s
	sent  []float64  // Mb transmitted, valid as of last
	last  []float64  // time sent was last synced
	susp  []float64  // suspension deadline (mid-switch blackout)
	size  []float64  // object size, Mb
	wake  []float64  // stored wake key (+Inf = no wake needed)
	flags []uint8    // SlotPaused | SlotPatch | SlotTapped | SlotGlitched
	meta  []SlotMeta // the rest of the stream state

	wakeMin   float64 // min over wake ∪ copy keys, valid unless dirty
	wakeArg   int32   // slot of the min; wakeArgCopy for a copy job
	wakeDirty bool    // a key was removed or raised since the last fold
}

// SlotMeta is a slot's stream state beyond the fluid columns and flags:
// the fields the spare gather, the DRM planner and the audit snapshot
// read. Its fields are ordered widest first, so it packs in 48 bytes,
// and a move copies it as one value.
// It is exported for the audit snapshot's read-only view of the lane
// (AuditServerState.Meta).
type SlotMeta struct {
	ID      int64   // request id
	BufCap  float64 // client staging buffer, Mb (0 = no staging)
	RecvCap float64 // client receive cap, Mb/s (0 = unlimited)
	ViewOff float64 // data consumed by playback as of ViewT, Mb
	ViewT   float64 // time the viewer position was last synced
	Video   int32   // video index
	Hops    int32   // lifetime migrations
}

// Slot flag bits, exported for the audit snapshot's view of the flags
// column (AuditServerState.Flags).
const (
	SlotPaused   uint8 = 1 << iota // the viewer has paused playback
	SlotPatch                      // a unicast patch stream
	SlotTapped                     // feeds multicast taps (request.taps > 0)
	SlotGlitched                   // the buffer ran dry under the intermittent scheduler

	// slotPinned marks a stream that must stay on its server at b_view:
	// the multicast tree of a patch or a tapped primary cannot move,
	// and cannot run ahead of its receivers' buffers.
	slotPinned = SlotPatch | SlotTapped
)

// wakeArg sentinel values. Slots are ≥ 0.
const (
	wakeArgNone = int32(-1) // no key folded yet (idle server)
	wakeArgCopy = int32(-2) // the min is a copy job's key
)

// push appends a slot. Its wake key starts at +Inf; the reschedule
// that follows every attach and move writes the real key (+Inf cannot
// lower the maintained min, so no invalidation is needed).
func (ln *lane) push(rate, sent, last, susp, size float64, flags uint8, m SlotMeta) {
	ln.rate = append(ln.rate, rate)
	ln.sent = append(ln.sent, sent)
	ln.last = append(ln.last, last)
	ln.susp = append(ln.susp, susp)
	ln.size = append(ln.size, size)
	ln.wake = append(ln.wake, math.Inf(1))
	ln.flags = append(ln.flags, flags)
	ln.meta = append(ln.meta, m)
}

// remove swap-removes slot i, mirroring server.detach's swap of the
// active slice. Removing a key can orphan the maintained min, so the
// index goes dirty.
func (ln *lane) remove(i, last int) {
	ln.rate = swapRemove(ln.rate, i, last)
	ln.sent = swapRemove(ln.sent, i, last)
	ln.last = swapRemove(ln.last, i, last)
	ln.susp = swapRemove(ln.susp, i, last)
	ln.size = swapRemove(ln.size, i, last)
	ln.wake = swapRemove(ln.wake, i, last)
	ln.flags = swapRemove(ln.flags, i, last)
	ln.meta = swapRemove(ln.meta, i, last)
	ln.wakeDirty = true
}

// swapRemove moves a[last] into a[i] and drops the last element.
func swapRemove[T any](a []T, i, last int) []T {
	a[i] = a[last]
	return a[:last]
}

// viewedAt returns the data slot i's viewer has consumed by time t.
func (ln *lane) viewedAt(i int, t, bview float64) float64 {
	m := &ln.meta[i]
	return viewedFrom(m.ViewOff, m.ViewT, ln.size[i], t, bview, ln.flags[i]&SlotPaused != 0)
}

// beginRound opens an allocation round: every slot's key is about to be
// rewritten, so the maintained min restarts empty. Copy keys are
// rewritten by the same round (allocateCopies), so they restart too.
func (ln *lane) beginRound() {
	ln.wakeMin = math.Inf(1)
	ln.wakeArg = wakeArgNone
	ln.wakeDirty = false
}

// setWake stores slot i's wake key and folds it into the maintained
// min. Within a round a slot's key can be rewritten (the spare feed
// raises rates, which only lowers keys); a raise of the current min is
// still handled, by marking the index dirty.
func (ln *lane) setWake(i int32, k float64) {
	ln.wake[i] = k
	if k <= ln.wakeMin {
		ln.wakeMin, ln.wakeArg = k, i
	} else if ln.wakeArg == i {
		ln.wakeDirty = true
	}
}

// foldCopyKey folds a copy job's freshly written key into the
// maintained min (the key itself lives on the copyJob).
func (ln *lane) foldCopyKey(k float64) {
	if k <= ln.wakeMin {
		ln.wakeMin, ln.wakeArg = k, wakeArgCopy
	}
}

// reset returns the lane to its empty state, retaining slice capacity
// for Engine.Reset reuse.
func (ln *lane) reset() {
	ln.rate = ln.rate[:0]
	ln.sent = ln.sent[:0]
	ln.last = ln.last[:0]
	ln.susp = ln.susp[:0]
	ln.size = ln.size[:0]
	ln.wake = ln.wake[:0]
	ln.flags = ln.flags[:0]
	ln.meta = ln.meta[:0]
	ln.beginRound()
}

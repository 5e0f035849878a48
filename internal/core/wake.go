package core

import "math"

// The wake index: when must a server's allocation be recomputed absent
// external events? Each active stream contributes up to three wake
// candidates — its transmission finishing, its client buffer filling,
// and (suspended streams) its switch blackout ending; under the
// intermittent scheduler a paused stream additionally wakes when its
// draining buffer reaches the resume guard. Each copy job contributes
// its projected completion. The server's next wake is the min over all
// of them, +Inf when idle.
//
// Historically this min was recomputed from scratch at every event,
// because a *recomputed* candidate drifts from a *cached* one by ulps:
// t₀ + remaining₀/rate and t₁ + remaining₁/rate are equal mathematically
// but not in float64, and any drift breaks the engine's bit-identical
// determinism contract. The refactored data plane solves that with
// exact keys instead of recomputation: the allocation round that
// assigns a slot its rate also computes the slot's wake key — once,
// with the same operand values the end-of-round scan used to read —
// and stores it in the server's lane. The incremental min (folded as
// keys are written, lazily repaired by a compare-only rescan when a
// key is removed or raised — see lane.go) and any from-scratch min are
// then mins over the *same stored keys*, so they agree bit for bit and
// the cached answer is exactly what the old scan computed.
//
// Key-write discipline (who writes, and when a key is invalidated):
//
//   - minFlowRates / allocateIntermittent open the round (beginRound)
//     and write every slot's key as they assign rates: the suspension
//     deadline for suspended slots, +Inf for paused-and-full viewers
//     under minimum flow, the resume-guard key for streams the
//     intermittent feed pauses, and wakeKeyServing for transmitting
//     slots;
//   - the spare feeds rewrite wakeKeyServing for each slot whose rate
//     they raise (a raise only lowers the key, so the running min
//     stays valid);
//   - allocateCopies writes each copy job's key for the round;
//   - detach, copy-job removal, and anything else that deletes or
//     raises a stored key marks the index dirty; the next query
//     repairs it by rescanning stored keys, never recomputing them.
//
// Every reschedule runs a full round, so a server's stored keys are
// exactly as fresh as its rates — the same staleness contract the
// from-scratch scan had.

// wakeKeyServing returns the wake key of slot i, which the current
// allocation round just assigned a positive rate at time t: the
// earlier of its projected finish and its buffer filling (the buffer
// fills at rate − drain; drain is zero while the viewer has paused).
// The slot must be synced to t.
func (e *Engine) wakeKeyServing(s *server, i int, t float64) float64 {
	bview := e.cfg.ViewRate
	ln := &s.ln
	rate := ln.rate[i]
	sent := ln.sent[i]
	// remainingOf and bufferOf, unrolled onto the already-loaded sent.
	// Same operations in the same order, so the keys are bit-identical.
	rem := ln.size[i] - sent
	if rem < 0 {
		rem = 0
	}
	key := t + rem/rate
	drain := bview
	if ln.flags[i]&SlotPaused != 0 {
		drain = 0
	}
	bufCap := ln.meta[i].BufCap
	if fill := rate - drain; fill > dataEps && bufCap >= 0 {
		buf := sent - ln.viewedAt(i, t, bview)
		if buf < 0 {
			buf = 0
		}
		room := bufCap - buf
		if room < 0 {
			room = 0
		}
		if tb := t + room/fill; tb < key {
			key = tb
		}
	}
	return key
}

// wakeKeyPaused returns the wake key of a stream the intermittent
// scheduler paused with buffer level buf at time t: its buffer drains
// at b_view and the stream must be reconsidered when it reaches the
// resume guard. A stream already at or below the guard is urgent — the
// round that just ran made its decision, and only another event (a
// finish, an arrival) can change it, so scheduling a wake "now" would
// spin; it gets no candidate.
func (e *Engine) wakeKeyPaused(buf, t float64) float64 {
	bview := e.cfg.ViewRate
	lead := buf - e.resumeGuard()*bview
	if lead > timeEps {
		return t + lead/bview
	}
	return math.Inf(1)
}

// currentWake returns the min over s's stored wake keys, repairing the
// incremental index first if a removal or raise invalidated it.
func (s *server) currentWake() float64 {
	if s.ln.wakeDirty {
		s.repairWake()
	}
	return s.ln.wakeMin
}

// repairWake recomputes the maintained min by rescanning the stored
// keys — compares only, no key is recomputed, so the repaired answer
// is bit-identical to the incremental one whenever both are valid.
func (s *server) repairWake() {
	ln := &s.ln
	min, arg := math.Inf(1), wakeArgNone
	for i, k := range ln.wake {
		if k < min {
			min, arg = k, int32(i)
		}
	}
	for _, c := range s.copies {
		if c.wakeKey < min {
			min, arg = c.wakeKey, wakeArgCopy
		}
	}
	ln.wakeMin, ln.wakeArg, ln.wakeDirty = min, arg, false
}

// wakeAt returns the server's next wake for a round that ran at time
// t: the stored-key min, clamped so float noise cannot schedule into
// the past. allocate returns it.
func (s *server) wakeAt(t float64) float64 {
	next := s.currentWake()
	if next < t {
		next = t
	}
	return next
}

// nextWake computes the server's next wake from scratch off the live
// lane state (rates, not stored keys) — the reference the tests check
// the stored-key index against. For a server whose round just ran at
// time t it returns exactly wakeAt(t): the round stored each slot's
// key from the same operand values this scan reads.
func (e *Engine) nextWake(s *server, t float64) float64 {
	next := math.Inf(1)
	ln := &s.ln
	for i := range ln.rate {
		var k float64
		switch {
		case s.suspendedAt(i, t):
			k = ln.susp[i]
		case ln.rate[i] <= 0:
			if !e.cfg.Intermittent {
				continue
			}
			k = e.wakeKeyPaused(s.bufferOf(i, t, e.cfg.ViewRate), t)
		default:
			k = e.wakeKeyServing(s, i, t)
		}
		if k < next {
			next = k
		}
	}
	for _, c := range s.copies {
		if c.rate > 0 {
			if tc := t + (c.size-c.sent)/c.rate; tc < next {
				next = tc
			}
		}
	}
	if next < t {
		next = t // guard against float noise scheduling into the past
	}
	return next
}

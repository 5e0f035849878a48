package core

import "math"

// Minimum-flow allocation (Sections 3.3 and Figure 2 of the paper):
// every unfinished, non-suspended request is guaranteed at least the
// view bandwidth b_view, so admitted playback can never glitch. The
// three minimum-flow policies (EFTF, LFTF, even-split) share this pass
// and differ only in how the leftover bandwidth is staged ahead — see
// spreadSpare in spare.go.

// minFlowRates assigns the minimum-flow guarantee on server s at time t
// and returns the spare bandwidth left over. All requests in s.active
// must be synced to t. It opens the server's wake round and writes
// every slot's key as it assigns the rate: a later spare feed rewrites
// the keys of the slots it raises (see wake.go).
//
// With workahead on and spare left after b_view for every slot, the
// same sweep offers every slot it serves to the spare gather
// (spareCandidate, then addSpare), so a round walks the lane once. The
// gather is budgeted with the spare the round leaves if it serves every
// slot, plus dataEps. gathered reports that the spare returned is
// within that budget, so the feed can use what the sweep gathered
// (spare.go has the argument). A round that idles a slot leaves more
// spare than the budget, so the sweep stops adding at the first idle
// slot and reports false: allocate then gathers again in a second sweep
// with the exact spare. The returned spare is the bandwidth less b_view
// once per served slot, subtracted in slot order.
func (e *Engine) minFlowRates(s *server, t float64) (avail float64, gathered bool) {
	avail = s.bandwidth
	bview := e.cfg.ViewRate
	ln := &s.ln
	ln.beginRound()
	// The round touches every slot exactly once, so the min is tracked in
	// locals and committed wholesale instead of paying setWake's fold per
	// slot; the spare feeds that follow rewrite keys through setWake,
	// which keeps the committed min valid (a raise only lowers keys).
	// Reslicing to rate's length drops the per-element bounds checks.
	min, arg := math.Inf(1), wakeArgNone
	rateA := ln.rate
	suspA := ln.susp[:len(rateA)]
	wakeA := ln.wake[:len(rateA)]
	sentA := ln.sent[:len(rateA)]
	sizeA := ln.size[:len(rateA)]
	flagsA := ln.flags[:len(rateA)]
	metaA := ln.meta[:len(rateA)]
	// Without a gather the reach is empty, so no slot is offered, and
	// the budget is -Inf, so no spare is within it.
	lo, hi := math.Inf(1), math.Inf(-1)
	budget := avail - float64(len(rateA))*bview
	if e.cfg.Workahead && budget > 0 {
		budget += dataEps
		lo, hi = e.spareSinks(budget)
	} else {
		budget = math.Inf(-1)
	}
	tEps := t + timeEps
	for i := range rateA {
		f := flagsA[i]
		if suspA[i] > tEps || f&SlotPaused != 0 {
			k, served, nlo, nhi := e.minFlowHeld(s, i, t, lo, hi)
			if served {
				avail -= bview
				lo, hi = nlo, nhi
			} else {
				// An idle slot leaves b_view more spare than the
				// budget, so the round gathers again with the exact
				// spare: the sweep stops adding.
				lo, hi, budget = math.Inf(1), math.Inf(-1), math.Inf(-1)
			}
			wakeA[i] = k
			if k < min {
				min, arg = k, int32(i)
			}
			continue
		}
		rateA[i] = bview
		avail -= bview
		// wakeKeyServing at rate = bview, unrolled by hand: the call
		// exceeds the inline budget and this loop pays it per slot
		// (calling it here cost p4-large 11.5% and f7-sweep 8.3% of
		// their req/s; DESIGN §12). Identical operations in the same
		// order keep the keys bit-identical to wakeKeyServing's.
		// TestWakeIndexMatchesScan pins that, since its nextWake
		// recomputes every key through wakeKeyServing; the wake-exact
		// audit rule cannot, as it compares the min with keys this
		// loop itself wrote. A viewer who is playing drains the buffer
		// at b_view, so it never fills at this rate and only the finish
		// is a candidate.
		sent, size := sentA[i], sizeA[i]
		rem := size - sent
		if rem < 0 {
			rem = 0
		}
		k := t + rem/bview
		wakeA[i] = k
		if k < min {
			min, arg = k, int32(i)
		}
		if rem >= lo && rem <= hi && spareCandidate(&metaA[i], f, t, bview, sent, size) {
			lo, hi = e.addSpare(ln, i, rem)
		}
	}
	ln.wakeMin, ln.wakeArg = min, arg
	return avail, avail <= budget
}

// minFlowHeld is minFlowRates' out-of-line step for slot i when it is
// suspended or its viewer has paused, which keeps the sweep's common
// path free of calls. It assigns the slot's rate and returns its wake
// key and whether it is served at b_view. A served slot is offered to
// the gather, which reaches [lo, hi], and its new reach is returned.
func (e *Engine) minFlowHeld(s *server, i int, t, lo, hi float64) (float64, bool, float64, float64) {
	ln := &s.ln
	if ln.susp[i] > t+timeEps {
		// Mid-switch streams receive nothing until the blackout ends.
		ln.rate[i] = 0
		return ln.susp[i], false, lo, hi
	}
	if e.pausedFullAt(s, i, t) {
		// A paused viewer with a full buffer has nowhere to put data,
		// so the minimum-flow guarantee is moot until it resumes (an
		// evResume event triggers reallocation).
		ln.rate[i] = 0
		return math.Inf(1), false, lo, hi
	}
	bview := e.cfg.ViewRate
	ln.rate[i] = bview
	k := e.wakeKeyServing(s, i, t)
	sent, size := ln.sent[i], ln.size[i]
	rem := size - sent
	if rem < 0 {
		rem = 0
	}
	if rem >= lo && rem <= hi && spareCandidate(&ln.meta[i], ln.flags[i], t, bview, sent, size) {
		lo, hi = e.addSpare(ln, i, rem)
	}
	return k, true, lo, hi
}

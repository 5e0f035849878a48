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
func (e *Engine) minFlowRates(s *server, t float64) float64 {
	avail := s.bandwidth
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
	for i := range rateA {
		var k float64
		if suspA[i] > t+timeEps {
			// Mid-switch streams receive nothing until the blackout ends.
			rateA[i] = 0
			k = suspA[i]
		} else if r := s.active[i]; r.pausedView && s.bufferOf(i, t, bview) >= r.bufCap-dataEps {
			// A paused viewer with a full buffer has nowhere to put
			// data, so the minimum-flow guarantee is moot until it
			// resumes (an evResume event triggers reallocation).
			rateA[i] = 0
			k = math.Inf(1)
		} else {
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
			// loop itself wrote.
			sent := sentA[i]
			rem := sizeA[i] - sent
			if rem < 0 {
				rem = 0
			}
			k = t + rem/bview
			if fill := bview - r.drainRate(bview); fill > dataEps && r.bufCap >= 0 {
				buf := sent - r.viewedAt(t, bview)
				if buf < 0 {
					buf = 0
				}
				room := r.bufCap - buf
				if room < 0 {
					room = 0
				}
				if tb := t + room/fill; tb < k {
					k = tb
				}
			}
		}
		wakeA[i] = k
		if k < min {
			min, arg = k, int32(i)
		}
	}
	ln.wakeMin, ln.wakeArg = min, arg
	return avail
}

package core

import (
	"math"

	"semicont/internal/core/alloc"
)

// Spare-bandwidth staging, the last step of every allocation round:
// gathering the staging candidates of a server, then feeding them in the
// discipline's order.
//
// The feed orders only what it feeds. Feeding spare in (key, id)
// order only touches the fed *prefix* of that order — once the spare is
// exhausted every later candidate's grant is zero and its state
// untouched — and near full load that prefix is a few of dozens. So
// the EFTF/LFTF feed gathers into an alloc.Prefix bounded by the spare:
// it keeps only candidates with receive headroom whose predecessors'
// headroom does not yet cover the spare, rejects a slot whose remaining
// volume is behind a covered prefix before its buffer test, and costs
// O(k + I log m) for k slots, I insertions and m kept candidates. The
// gather reads only the lane, never a *request.
// Audited runs feed from the same prefix. They give up only the early
// rejection (Beyond never changes what the prefix keeps): the gather
// also lists every eligible candidate, unsorted, and the SpareOrder tap
// receives the fed grants in feed order followed by every other
// candidate marked Skipped, still O(k). That is what the auditor needs
// to check the order without a sort: no skipped candidate with headroom
// may precede the last fed one. TestSpareFeedMatchesSortedFeed here and
// TestPrefixMatchesSortedFeed in package alloc pin the feed to a walk of
// the full sorted order.
//
// Why the per-request rates are bit-identical to that sorted walk. The
// grant arithmetic is the same code (spareGrantTo) applied in the same
// order to the same slots, so the two can differ only if the sorted walk
// grants something to a candidate the prefix left out. Candidates with
// no headroom get a zero grant, which changes nothing. The prefix
// drops a candidate only when the headroom of the kept candidates
// ahead of it sums to at least the spare; a later drop removes only the
// last kept candidate, and only when those ahead of it cover the spare
// in turn, so the kept candidates ahead of any dropped one always cover
// the spare. After them the feed has max(0, spare − sum) left up to
// rounding, and it stops at avail ≤ dataEps, so it never reaches a
// dropped candidate as long as the rounding in both sums stays under
// dataEps. Both sums round once per addition or removal, on magnitudes
// below spare + 2·receive cap: at k = 4096 the drift stays below 1e-9
// Mb against dataEps = 1e-6 Mb, and it could reach dataEps only when
// k·(spare + receive cap) neared 4e9 Mb/s, far beyond any configured
// server. (Uncapped clients' +Inf headroom is counted, not summed.)
//
// Every feed rewrites the wake key of each slot whose rate it raises
// (see wake.go): a raised rate moves both the finish and the
// buffer-full candidate earlier, so the rewrite only lowers the key
// and the lane's running min stays valid.

// gatherSpareCandidates collects s's staging candidates at time t: not
// suspended, transmitting, not pinned by multicast taps or patching,
// with buffer room left. Each candidate's key is the request's
// untransmitted volume — the EFTF/LFTF ordering quantity — and its
// position indexes s.active. Every candidate goes to each sink given,
// which the caller has Reset: to prefix along with its receive
// headroom, and to all. Only when all is nil does the gather skip a
// slot behind the covered prefix, before its buffer test.
func (e *Engine) gatherSpareCandidates(s *server, t float64, prefix *alloc.Prefix, all *alloc.Index) {
	bview := e.cfg.ViewRate
	shortcut := all == nil
	ln := &s.ln
	rateA := ln.rate
	suspA := ln.susp[:len(rateA)]
	sentA := ln.sent[:len(rateA)]
	sizeA := ln.size[:len(rateA)]
	flagsA := ln.flags[:len(rateA)]
	for i := range rateA {
		if suspA[i] > t+timeEps || rateA[i] <= 0 {
			continue
		}
		// remainingOf and bufferOf unrolled onto one sent load; same
		// operations, same clamps.
		sent := sentA[i]
		rem := sizeA[i] - sent
		if rem < 0 {
			rem = 0
		}
		if shortcut && prefix.Beyond(rem) {
			continue
		}
		// Streams feeding multicast taps cannot run ahead (the shared
		// receivers' buffers bound the sender), and patch streams share
		// their client's buffer with the tapped remainder, so both stay
		// at exactly b_view.
		if flagsA[i]&slotPinned != 0 {
			continue
		}
		m := &ln.meta[i]
		if m.BufCap <= 0 {
			continue
		}
		buf := sent - ln.viewedAt(i, t, bview)
		if buf < 0 {
			buf = 0
		}
		if buf >= m.BufCap-dataEps {
			continue
		}
		if prefix != nil {
			prefix.Add(rem, m.ID, int32(i), receiveHeadroom(rateA[i], m.RecvCap))
		}
		if all != nil {
			all.Add(rem, m.ID, int32(i))
		}
	}
}

// receiveHeadroom is how much more a client receiving at rate can take:
// recvCap − rate, or +Inf when its receive bandwidth is uncapped.
func receiveHeadroom(rate, recvCap float64) float64 {
	if recvCap > 0 {
		return recvCap - rate
	}
	return math.Inf(1)
}

// spareGrantTo computes how much spare a candidate can absorb:
// min(avail, receive headroom), clamped at zero for saturated clients.
func spareGrantTo(rate, recvCap, avail float64) float64 {
	extra := receiveHeadroom(rate, recvCap)
	if extra > avail {
		extra = avail
	}
	if extra < 0 {
		extra = 0 // this client is saturated; try the next
	}
	return extra
}

// spreadSpare hands spare bandwidth to staging candidates under the
// configured discipline. Requests must be synced to t and already hold
// their minimum rates.
//
// EFTF is the paper's EARLIESTFINISHTIMEFIRST procedure (Figure 2):
//
//  1. every unfinished, non-suspended request receives the view
//     bandwidth b_view (the minimum-flow guarantee, minFlowRates), then
//  2. while spare bandwidth remains, the request with the earliest
//     projected finishing time whose client buffer is not full receives
//     as much additional bandwidth as its client can absorb
//     (min(spare, b_receive − b_r)).
//
// The projected finishing time at t is t + remaining/b_view for every
// request, so "earliest projected finish" is exactly "smallest
// remaining volume" — the comparison the implementation uses. The
// theorem in Section 3.3 shows this rule is optimal among minimum-flow
// algorithms when client receive bandwidth is unbounded; with a receive
// cap it remains the paper's (empirically near-optimal) policy. LFTF
// and EvenSplit are the ablations that measure what the ordering rule
// is worth (A-EFTF).
func (e *Engine) spreadSpare(s *server, t float64, avail float64) {
	switch e.cfg.Spare {
	case EvenSplit:
		e.feedSpareEven(s, t, avail)
	case LFTF:
		// Latest projected finish first: the adversarial opposite.
		e.feedSpareOrdered(s, t, avail, true)
	default:
		// EFTF: earliest projected finish first; ties broken by request
		// id for determinism.
		e.feedSpareOrdered(s, t, avail, false)
	}
}

// feedSpareOrdered feeds spare to candidates in ascending (descending
// when inverted) remaining-volume order. With an auditor attached the
// gather also lists every candidate in e.cand, and the fed grants are
// collected for the SpareOrder tap.
func (e *Engine) feedSpareOrdered(s *server, t float64, avail float64, descending bool) {
	audited := e.audit != nil
	var all *alloc.Index
	if audited {
		e.cand.Reset(descending)
		all = &e.cand
	}
	e.prefix.Reset(descending, avail)
	e.gatherSpareCandidates(s, t, &e.prefix, all)
	ln := &s.ln
	kept := e.prefix.Drain()
	grants := e.spareGrantBuf[:0]
	for _, ent := range kept {
		if avail <= dataEps {
			break
		}
		i := ent.Pos
		// Kept candidates have headroom and avail > 0, so the grant is
		// positive.
		recvCap := ln.meta[i].RecvCap
		extra := spareGrantTo(ln.rate[i], recvCap, avail)
		if audited {
			grants = append(grants, SpareGrant{
				Request: ent.ID, Remaining: ent.Key,
				RateBefore: ln.rate[i], Extra: extra, RecvCap: recvCap,
			})
		}
		ln.rate[i] += extra
		avail -= extra
		ln.setWake(i, e.wakeKeyServing(s, int(i), t))
	}
	if audited {
		e.reportSpareOrder(s, t, kept[:len(grants)], grants)
	}
}

// reportSpareOrder hands one audited feed to the SpareOrder tap: the
// grants made to fed, in feed order, then every other candidate of
// e.cand, in slot order, marked Skipped with no grant. Each fed
// candidate is also in e.cand, so the walk clears every mark it set and
// spareFed stays all false between feeds.
func (e *Engine) reportSpareOrder(s *server, t float64, fed []alloc.Weighted, grants []SpareGrant) {
	if e.cand.Len() == 0 {
		return
	}
	if len(e.spareFed) < len(s.active) {
		e.spareFed = make([]bool, len(s.active))
	}
	for _, ent := range fed {
		e.spareFed[ent.Pos] = true
	}
	for _, ent := range e.cand.All() {
		i := ent.Pos
		if e.spareFed[i] {
			e.spareFed[i] = false
			continue
		}
		grants = append(grants, SpareGrant{
			Request: ent.ID, Remaining: ent.Key,
			RateBefore: s.ln.rate[i], RecvCap: s.ln.meta[i].RecvCap, Skipped: true,
		})
	}
	e.spareGrantBuf = grants
	e.auditFail(e.audit.SpareOrder(t, s.id, e.cfg.Spare, grants))
}

// feedSpareEven water-fills spare equally across the candidates,
// redistributing what saturated clients cannot absorb. Candidates are
// processed in active order (the discipline is order-free by design and
// emits no feed-order tap). A candidate can be fed across several
// rounds, so the wake keys are written once at the end, from the final
// rates — the same values a post-feed scan would have read.
func (e *Engine) feedSpareEven(s *server, t float64, avail float64) {
	e.cand.Reset(false)
	e.gatherSpareCandidates(s, t, nil, &e.cand)
	if e.cand.Len() == 0 {
		return
	}
	ln := &s.ln
	// All() returns insertion order (nothing has been popped or sorted);
	// the survivor filter works on a separate scratch so it cannot
	// corrupt the index storage.
	remaining := append(e.evenBuf[:0], e.cand.All()...)
	e.evenBuf = remaining
	for avail > dataEps && len(remaining) > 0 {
		share := avail / float64(len(remaining))
		next := remaining[:0]
		for _, ent := range remaining {
			i := ent.Pos
			headroom := math.Inf(1)
			if recvCap := ln.meta[i].RecvCap; recvCap > 0 {
				headroom = recvCap - ln.rate[i]
			}
			extra := share
			if extra >= headroom {
				extra = headroom
			} else {
				next = append(next, ent) // can absorb more next round
			}
			if extra > 0 {
				ln.rate[i] += extra
				avail -= extra
			}
		}
		if len(next) == len(remaining) {
			break // everyone took a full share; spare exhausted
		}
		remaining = next
	}
	for _, ent := range e.cand.All() {
		ln.setWake(ent.Pos, e.wakeKeyServing(s, int(ent.Pos), t))
	}
}

// allocateCopies feeds replica transfers from the spare bandwidth left
// after the minimum-flow guarantee and ahead of client staging: fixing
// placement is the more durable use of the spare. Each job is capped so
// replication cannot monopolize the workahead benefit. Each job's wake
// key for the round is written here (its projected completion).
func (e *Engine) allocateCopies(s *server, t float64, avail float64) float64 {
	if len(s.copies) == 0 {
		return avail
	}
	rateCap := e.copyRateCap()
	for _, c := range s.copies {
		r := rateCap
		if r > avail {
			r = avail
		}
		if r < 0 {
			r = 0
		}
		c.rate = r
		avail -= r
		if avail <= dataEps {
			avail = 0
			rateCap = 0
		}
		if r > 0 {
			c.wakeKey = t + (c.size-c.sent)/r
		} else {
			c.wakeKey = math.Inf(1)
		}
		s.ln.foldCopyKey(c.wakeKey)
	}
	return avail
}

// pausedFullAt reports whether slot i's viewer has paused with no
// buffer room left: transmission must stop or the client buffer would
// overflow (with no staging buffer at all, any pause stops the flow).
func (e *Engine) pausedFullAt(s *server, i int, t float64) bool {
	return s.ln.flags[i]&SlotPaused != 0 && s.bufferOf(i, t, e.cfg.ViewRate) >= s.ln.meta[i].BufCap-dataEps
}

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
// volume is behind a covered prefix (outside its Reach) before its
// buffer test, and costs O(k + I log m) for k slots, I insertions and m
// kept candidates. The gather reads only the lane, never a *request.
// Audited runs feed from the same prefix. They give up only the early
// rejection (Reach never changes what the prefix keeps): the gather
// also lists every eligible candidate, unsorted, and the SpareOrder tap
// receives the fed grants in feed order followed by every other
// candidate marked Skipped, still O(k). That is what the auditor needs
// to check the order without a sort: no skipped candidate with headroom
// may precede the last fed one. TestSpareFeedMatchesSortedFeed here and
// TestPrefixMatchesSortedFeed in package alloc pin the feed to a walk of
// the full sorted order.
//
// Where the gather runs. A minimum-flow round with workahead gathers in
// the sweep that assigns b_view (minFlowRates): each slot it serves
// goes through the one candidate test (spareCandidate) right after its
// wake key, so the round walks the lane once. That sweep runs before
// the spare is known, so it budgets the gather with the spare the round
// leaves if it serves all n slots, bandwidth − n·b_view, plus dataEps.
// What staging then receives is at most that budget, because copy jobs
// only lower it, and a larger budget changes nothing the feed does: the
// prefix keeps the head of the same order, only longer, and the feed
// stops at avail ≤ dataEps before it leaves what the exact spare would
// have kept (the argument below, with the kept headroom covering the
// budget and so the spare); Reach excludes a slot only once the kept
// headroom covers the budget, so only a slot the spare cannot reach.
// The slack covers the rounding of the spare itself: it is the
// bandwidth less b_view once per served slot, n subtractions on
// magnitudes below the bandwidth B, within about n·B·2⁻⁵³ of
// B − n·b_view (1.1e-8 Mb/s at n = 4096 and B = 24,576 Mb/s), far
// under dataEps. minFlowRates reports whether the spare is within the
// budget, compared exactly, so rounding could at worst cost a second
// sweep, never a gather budgeted below the spare. A round that idles a
// slot (suspended mid-switch, or a paused viewer with a full buffer)
// leaves b_view more per idle slot and fails the test, so at its first
// idle slot the sweep stops adding and marks the round as outside the
// budget; allocate discards what it gathered and gathers again in the
// standalone sweep (gatherSpareCandidates, through spreadSpare) with
// the exact spare. So does the intermittent heuristic, which learns its
// spare only at the end of its feed. Both sweeps offer slots in slot
// order, which even split feeds in.
//
// Why the per-request rates are bit-identical to that sorted walk. The
// grant arithmetic is the same code (spareGrantTo) applied in the same
// order to the same slots, so the two can differ only if the sorted walk
// grants something to a candidate the prefix left out. Candidates with
// no headroom get a zero grant, which changes nothing. The prefix
// drops a candidate only when the headroom of the kept candidates
// ahead of it sums to at least the budget, and so the spare; a later
// drop removes only the last kept candidate, and only when those ahead
// of it cover the budget in turn, so the kept candidates ahead of any
// dropped one always cover the spare. After them the feed has
// max(0, spare − sum) left up to rounding, and it stops at
// avail ≤ dataEps, so it never reaches a dropped candidate as long as
// the rounding in both sums stays under dataEps. Both sums round once
// per addition or removal, on magnitudes below budget + 2·receive cap:
// at k = 4096 the drift stays below 1e-9 Mb against dataEps = 1e-6 Mb,
// and it could reach dataEps only when k·(budget + receive cap) neared
// 4e9 Mb/s, far beyond any configured server. (Uncapped clients' +Inf
// headroom is counted, not summed.)
//
// Every feed rewrites the wake key of each slot whose rate it raises
// (see wake.go): a raised rate moves both the finish and the
// buffer-full candidate earlier, so the rewrite only lowers the key
// and the lane's running min stays valid.

// spareSinks resets the sinks of a spare gather for a feed of at most
// budget under the configured discipline: the bounded prefix for
// EFTF/LFTF, plus e.cand when audited, and e.cand alone for even split.
// It returns their reach (spareReach).
func (e *Engine) spareSinks(budget float64) (lo, hi float64) {
	if e.cfg.Spare == EvenSplit {
		e.cand.Reset(false)
		return e.spareReach()
	}
	// EFTF feeds the earliest projected finish first, ties broken by
	// request id for determinism; LFTF, the adversarial opposite, the
	// latest first.
	descending := e.cfg.Spare == LFTF
	e.prefix.Reset(descending, budget)
	if e.audit != nil {
		e.cand.Reset(descending)
	}
	return e.spareReach()
}

// spareReach returns the range of remaining volumes the gather's sinks
// can still take: the prefix's Reach when it is the only sink, else
// everything. A sweep skips a slot whose remaining volume is outside it
// before the candidate test, without loading its record; the sweeps
// hold the bounds in locals and refresh them after each add.
func (e *Engine) spareReach() (lo, hi float64) {
	if e.cfg.Spare == EvenSplit || e.audit != nil {
		return math.Inf(-1), math.Inf(1)
	}
	return e.prefix.Reach()
}

// gatherSpareCandidates is the standalone gather sweep: it offers every
// slot of s that transmits at time t, not suspended and at a positive
// rate, to the sinks spareSinks reset, which reach [lo, hi].
func (e *Engine) gatherSpareCandidates(s *server, t, lo, hi float64) {
	bview := e.cfg.ViewRate
	ln := &s.ln
	rateA := ln.rate
	suspA := ln.susp[:len(rateA)]
	sentA := ln.sent[:len(rateA)]
	sizeA := ln.size[:len(rateA)]
	flagsA := ln.flags[:len(rateA)]
	metaA := ln.meta[:len(rateA)]
	for i := range rateA {
		if suspA[i] > t+timeEps || rateA[i] <= 0 {
			continue
		}
		sent, size := sentA[i], sizeA[i]
		rem := size - sent
		if rem < 0 {
			rem = 0
		}
		if rem >= lo && rem <= hi && spareCandidate(&metaA[i], flagsA[i], t, bview, sent, size) {
			lo, hi = e.addSpare(ln, i, rem)
		}
	}
}

// spareCandidate is the per-slot candidate test both sweeps run on a
// slot that transmits at time t, with record m and flags f, and sent Mb
// of its size Mb sent: a staging candidate is not pinned by multicast
// taps or patching and has buffer room left. It is small enough to
// inline into the sweeps, which skip a slot outside the sinks' reach
// before it.
func spareCandidate(m *SlotMeta, f uint8, t, bview, sent, size float64) bool {
	// Streams feeding multicast taps cannot run ahead (the shared
	// receivers' buffers bound the sender), and patch streams share
	// their client's buffer with the tapped remainder, so both stay at
	// exactly b_view.
	if f&slotPinned != 0 || m.BufCap <= 0 {
		return false
	}
	// bufferOf unrolled onto the caller's loads; same operations, same
	// clamp.
	buf := sent - viewedFrom(m.ViewOff, m.ViewT, size, t, bview, f&SlotPaused != 0)
	if buf < 0 {
		buf = 0
	}
	return buf < m.BufCap-dataEps
}

// addSpare adds candidate i, keyed by its remaining volume rem (the
// EFTF/LFTF ordering quantity), to the sinks spareSinks reset: to the
// prefix along with its receive headroom, and to the full list. Its
// position indexes s.active. It returns the sinks' new reach.
func (e *Engine) addSpare(ln *lane, i int, rem float64) (lo, hi float64) {
	m := &ln.meta[i]
	even := e.cfg.Spare == EvenSplit
	if !even {
		e.prefix.Add(rem, m.ID, int32(i), receiveHeadroom(ln.rate[i], m.RecvCap))
	}
	if even || e.audit != nil {
		e.cand.Add(rem, m.ID, int32(i))
	}
	return e.spareReach()
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
// configured discipline, gathering them first in the standalone sweep:
// the path of intermittent rounds and of minimum-flow rounds whose
// spare exceeds the budget their sweep gathered with (allocate).
// Requests must be synced to t and already hold their minimum rates.
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
	lo, hi := e.spareSinks(avail)
	e.gatherSpareCandidates(s, t, lo, hi)
	e.feedSpare(s, t, avail)
}

// feedSpare feeds avail to the candidates the round gathered into the
// sinks spareSinks reset, under the configured discipline.
func (e *Engine) feedSpare(s *server, t float64, avail float64) {
	if e.cfg.Spare == EvenSplit {
		e.feedSpareEven(s, t, avail)
		return
	}
	e.feedSpareOrdered(s, t, avail)
}

// feedSpareOrdered feeds spare to the candidates kept in e.prefix, in
// its ascending (descending for LFTF) remaining-volume order. With an
// auditor attached the gather also listed every candidate in e.cand,
// and the fed grants are collected for the SpareOrder tap.
func (e *Engine) feedSpareOrdered(s *server, t float64, avail float64) {
	audited := e.audit != nil
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

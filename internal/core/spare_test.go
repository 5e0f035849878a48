package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// spareOrderTap records the grants of every SpareOrder call. Only the
// feed-order taps are implemented: the test drives single allocation
// rounds, which call no other tap.
type spareOrderTap struct {
	AuditTap
	calls  int
	grants []SpareGrant
}

func (tp *spareOrderTap) SpareOrder(_ float64, _ int32, _ SpareDiscipline, grants []SpareGrant) error {
	tp.calls++
	tp.grants = append(tp.grants[:0], grants...)
	return nil
}

func (tp *spareOrderTap) IntermittentOrder(float64, int32, []IntermittentGrant) error {
	return nil
}

// sortedSpareFeed is the reference the spare feed is pinned to: gather
// every eligible candidate (every slot that transmits and passes the
// candidate test), sort them all in feed order, and walk the whole
// order with spareGrantTo. It returns one grant per candidate in that
// order, the zero grants after the spare runs out included.
func sortedSpareFeed(e *Engine, s *server, t, avail float64, descending bool) []SpareGrant {
	ln := &s.ln
	e.cand.Reset(descending)
	for i := range ln.rate {
		if ln.susp[i] > t+timeEps || ln.rate[i] <= 0 {
			continue
		}
		sent, size := ln.sent[i], ln.size[i]
		if spareCandidate(&ln.meta[i], ln.flags[i], t, e.cfg.ViewRate, sent, size) {
			e.cand.Add(math.Max(size-sent, 0), ln.meta[i].ID, int32(i))
		}
	}
	var grants []SpareGrant
	for _, ent := range e.cand.Sort() {
		i := ent.Pos
		recvCap := ln.meta[i].RecvCap
		var extra float64
		if avail > dataEps {
			extra = spareGrantTo(ln.rate[i], recvCap, avail)
		}
		grants = append(grants, SpareGrant{
			Request: ent.ID, Remaining: ent.Key,
			RateBefore: ln.rate[i], Extra: extra, RecvCap: recvCap,
		})
		if extra > 0 {
			ln.rate[i] += extra
			avail -= extra
			ln.setWake(i, e.wakeKeyServing(s, int(i), t))
		}
	}
	return grants
}

// sortedRound is a production allocation round with sortedSpareFeed in
// place of the spare feed. It returns the reference grants, or nil when
// the round leaves no spare to feed. Even split has no order to sort:
// its reference is the standalone gather sweep with the exact spare,
// then the even feed, and it returns no grants.
func sortedRound(e *Engine, s *server, t float64) []SpareGrant {
	var avail float64
	if e.cfg.Intermittent {
		avail = e.allocateIntermittent(s, t)
	} else {
		avail, _ = e.minFlowRates(s, t)
		avail = e.allocateCopies(s, t, avail)
	}
	var grants []SpareGrant
	if avail > dataEps { // spareFeedServer turns workahead on
		if e.cfg.Spare == EvenSplit {
			e.spreadSpare(s, t, avail)
		} else {
			grants = sortedSpareFeed(e, s, t, avail, e.cfg.Spare == LFTF)
		}
	}
	s.wakeAt(t)
	return grants
}

// spareFeedServer builds an engine and one server of k streams drawn
// from seed: mixed progress and buffer levels, client receive caps of
// 0 (uncapped), 30 and b_view (no headroom), full buffers, patch
// streams and multicast primaries, with spare bandwidth of frac times
// the minimum-flow demand. With held, paused viewers and suspended
// slots are mixed in too: the slots a minimum-flow round may idle,
// which send it to the second gather sweep. On even seeds the server
// also sources a copy job, which takes up to b_view/2 of the spare, so
// the sweep's gather budget exceeds the spare the feed hands out. The
// same arguments build the same server, so two calls give two clones.
func spareFeedServer(seed int64, k int, frac float64, held bool, cfg Config) (*Engine, *server) {
	const bview, t = 3.0, 500.0
	rng := rand.New(rand.NewSource(seed))
	bw := bview * float64(k) * (1 + frac)
	cfg.ServerBandwidth = []float64{bw}
	cfg.ViewRate = bview
	cfg.Workahead = true
	cfg.BufferCapacity = 2000
	cfg.Replication = ReplicationConfig{Enabled: true, CopyRateCap: bview / 2}
	e := &Engine{cfg: cfg}
	e.discardObs()
	s := mkServer(bw, bview)
	ids := rng.Perm(4 * k)
	for i := 0; i < k; i++ {
		size := 16200.0
		start := t - 4000*rng.Float64()
		viewed := (t - start) * bview
		r := &request{id: int64(1 + ids[i]), size: size, start: start}
		st := slotState{
			last: t, viewT: start, bufCap: cfg.BufferCapacity,
			recvCap: []float64{0, 30, bview}[rng.Intn(3)],
		}
		// Buffered volume: empty, full, or anywhere in between; the
		// remaining volume is what EFTF orders by, so duplicates matter.
		switch rng.Intn(6) {
		case 0:
			st.sent = viewed
		case 1:
			st.sent = viewed + st.bufCap
		default:
			st.sent = viewed + st.bufCap*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			st.sent = math.Round(st.sent/600) * 600 // tied keys
		}
		st.sent = math.Min(st.sent, size)
		draw := rng.Intn(12)
		if draw == 0 {
			r.isPatch = true
		}
		if draw == 3 && held {
			st.susp = t + 30
		}
		attachSlot(s, r, st)
		switch {
		case draw == 1:
			s.tap(r)
		case draw == 2 && held:
			s.pauseView(int(r.slot), t, bview)
		}
	}
	if seed%2 == 0 {
		s.copies = append(s.copies, &copyJob{size: 3600, sent: 1200 * rng.Float64(), last: t})
	}
	return e, s
}

// TestSpareFeedMatchesSortedFeed pins the spare feed, unaudited and
// audited, to the sorted reference: on three clones of a server, the
// production allocation round without a tap, the same round with a
// recording tap attached, and sortedRound must leave every lane column,
// every copy job's rate and wake key, and the wake index bit-identical.
// The grid covers EFTF, LFTF, even split, intermittent scheduling
// followed by the spare feed, mixed client receive caps, patch taps,
// copy jobs, server sizes and spare fractions from none to equal to the
// demand, each without and with held slots: without, every
// minimum-flow round with spare feeds what its one sweep gathered;
// with, rounds that idle a slot gather again in a second sweep, and
// both paths must be taken. The tap must receive the reference's
// positive grants in feed order, then every other eligible candidate
// exactly once, in slot order, Skipped and with no grant.
func TestSpareFeedMatchesSortedFeed(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{name: "eftf", cfg: Config{Spare: EFTF}},
		{name: "lftf", cfg: Config{Spare: LFTF}},
		{name: "even-split", cfg: Config{Spare: EvenSplit}},
		{name: "intermittent-eftf", cfg: Config{Spare: EFTF, Intermittent: true}},
		{name: "intermittent-lftf", cfg: Config{Spare: LFTF, Intermittent: true}},
	}
	for _, c := range cases {
		for _, held := range []bool{false, true} {
			oneSweep, secondSweep := 0, 0
			for _, k := range []int{1, 16, 100, 256} {
				for _, frac := range []float64{-0.1, 0, 0.003, 0.05, 0.2, 0.5, 1} {
					skipped := 0
					for seed := int64(1); seed <= 6; seed++ {
						name := fmt.Sprintf("%s/held=%v/k=%d/frac=%v/seed=%d", c.name, held, k, frac, seed)
						hot, hs := spareFeedServer(seed, k, frac, held, c.cfg)
						aud, as := spareFeedServer(seed, k, frac, held, c.cfg)
						ref, rs := spareFeedServer(seed, k, frac, held, c.cfg)
						tap := &spareOrderTap{}
						aud.SetAuditTap(tap)
						hot.allocate(hs, 500)
						aud.allocate(as, 500)
						want := sortedRound(ref, rs, 500)
						for _, got := range []struct {
							feed string
							s    *server
						}{{"unaudited", hs}, {"audited", as}} {
							if diff := serverDiff(got.s, rs); diff != "" {
								t.Fatalf("%s: %s round, sorted feed: %s", name, got.feed, diff)
							}
						}
						skipped += checkSpareReport(t, name, tap, want, rs)
						if !c.cfg.Intermittent {
							one, second := sweepPaths(seed, k, frac, held, c.cfg)
							if !held && second {
								t.Fatalf("%s: a round without held slots gathered again", name)
							}
							if one {
								oneSweep++
							}
							if second {
								secondSweep++
							}
						}
					}
					if c.cfg.Spare != EvenSplit && k > 1 && frac >= 0.05 && skipped == 0 {
						t.Fatalf("%s/held=%v/k=%d/frac=%v: no audited feed skipped a candidate", c.name, held, k, frac)
					}
				}
			}
			if !c.cfg.Intermittent && (oneSweep == 0 || held && secondSweep == 0) {
				t.Fatalf("%s/held=%v: %d rounds fed from the one sweep, %d gathered again", c.name, held, oneSweep, secondSweep)
			}
		}
	}
}

// sweepPaths reports which gather a minimum-flow round of the server
// spareFeedServer builds from these arguments feeds from: the one
// sweep's (one), or a second sweep's (second). A round that feeds
// nothing takes neither.
func sweepPaths(seed int64, k int, frac float64, held bool, cfg Config) (one, second bool) {
	e, s := spareFeedServer(seed, k, frac, held, cfg)
	avail, gathered := e.minFlowRates(s, 500)
	if e.allocateCopies(s, 500, avail) <= dataEps {
		return false, false
	}
	return gathered, !gathered
}

// serverDiff describes the first difference between two servers' lanes,
// copy jobs and wake indexes, comparing floats bit for bit, or returns
// "" when they are identical.
func serverDiff(got, want *server) string {
	g, w := &got.ln, &want.ln
	cols := []struct {
		name      string
		got, want []float64
	}{
		{"rate", g.rate, w.rate}, {"sent", g.sent, w.sent}, {"last", g.last, w.last},
		{"susp", g.susp, w.susp}, {"size", g.size, w.size}, {"wake", g.wake, w.wake},
	}
	for _, c := range cols {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%s column holds %d slots, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				return fmt.Sprintf("slot %d %s %v, want %v", i, c.name, c.got[i], c.want[i])
			}
		}
	}
	for i := range w.flags {
		if g.flags[i] != w.flags[i] {
			return fmt.Sprintf("slot %d flags %#x, want %#x", i, g.flags[i], w.flags[i])
		}
		gm, wm := g.meta[i], w.meta[i]
		if gm.ID != wm.ID || gm.Video != wm.Video || gm.Hops != wm.Hops ||
			math.Float64bits(gm.BufCap) != math.Float64bits(wm.BufCap) ||
			math.Float64bits(gm.RecvCap) != math.Float64bits(wm.RecvCap) ||
			math.Float64bits(gm.ViewOff) != math.Float64bits(wm.ViewOff) ||
			math.Float64bits(gm.ViewT) != math.Float64bits(wm.ViewT) {
			return fmt.Sprintf("slot %d meta %+v, want %+v", i, gm, wm)
		}
	}
	for j, c := range want.copies {
		gc := got.copies[j]
		if math.Float64bits(gc.rate) != math.Float64bits(c.rate) || math.Float64bits(gc.wakeKey) != math.Float64bits(c.wakeKey) {
			return fmt.Sprintf("copy %d rate %v key %v, want rate %v key %v", j, gc.rate, gc.wakeKey, c.rate, c.wakeKey)
		}
	}
	if math.Float64bits(g.wakeMin) != math.Float64bits(w.wakeMin) || g.wakeArg != w.wakeArg || g.wakeDirty != w.wakeDirty {
		return fmt.Sprintf("wake index min %v at %d (dirty %v), want %v at %d (dirty %v)",
			g.wakeMin, g.wakeArg, g.wakeDirty, w.wakeMin, w.wakeArg, w.wakeDirty)
	}
	return ""
}

// checkSpareReport checks what an audited round reported against the
// reference grants want (nil when no feed ran) and returns how many
// candidates the report marked Skipped. Slot positions come from s.
func checkSpareReport(t *testing.T, name string, tap *spareOrderTap, want []SpareGrant, s *server) int {
	t.Helper()
	if len(want) == 0 {
		if tap.calls != 0 {
			t.Fatalf("%s: %d SpareOrder calls for a feed with no candidates", name, tap.calls)
		}
		return 0
	}
	if tap.calls != 1 {
		t.Fatalf("%s: %d SpareOrder calls, want 1", name, tap.calls)
	}
	got := tap.grants
	if len(got) != len(want) {
		t.Fatalf("%s: reported %d candidates, %d eligible", name, len(got), len(want))
	}
	// The fed part: exactly the reference's positive grants, in order.
	others := map[int64]SpareGrant{}
	n := 0
	for _, w := range want {
		if w.Extra == 0 {
			others[w.Request] = w
			continue
		}
		if g := got[n]; g != w {
			t.Fatalf("%s: fed grant %d is %+v, sorted feed %+v", name, n, g, w)
		}
		n++
	}
	// The rest: each other candidate once, skipped, in slot order.
	slot := map[int64]int{}
	for i, r := range s.active {
		slot[r.id] = i
	}
	last := -1
	for _, g := range got[n:] {
		w, ok := others[g.Request]
		if !ok {
			t.Fatalf("%s: request %d reported skipped twice or fed", name, g.Request)
		}
		delete(others, g.Request)
		w.Skipped = true
		if g != w {
			t.Fatalf("%s: skipped candidate %+v, sorted feed %+v", name, g, w)
		}
		if slot[g.Request] <= last {
			t.Fatalf("%s: skipped request %d out of slot order", name, g.Request)
		}
		last = slot[g.Request]
	}
	return len(got) - n
}

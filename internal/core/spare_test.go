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
// every eligible candidate, sort them all in feed order, and walk the
// whole order with spareGrantTo. It returns one grant per candidate in
// that order, the zero grants after the spare runs out included.
func sortedSpareFeed(e *Engine, s *server, t, avail float64, descending bool) []SpareGrant {
	e.cand.Reset(descending)
	e.gatherSpareCandidates(s, t, nil, &e.cand)
	ln := &s.ln
	var grants []SpareGrant
	for _, ent := range e.cand.Sort() {
		i := ent.Pos
		r := s.active[i]
		var extra float64
		if avail > dataEps {
			extra = spareGrantTo(ln.rate[i], r.recvCap, avail)
		}
		grants = append(grants, SpareGrant{
			Request: ent.ID, Remaining: ent.Key,
			RateBefore: ln.rate[i], Extra: extra, RecvCap: r.recvCap,
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
// the round leaves no spare to feed.
func sortedRound(e *Engine, s *server, t float64) []SpareGrant {
	var avail float64
	if e.cfg.Intermittent {
		avail = e.allocateIntermittent(s, t)
	} else {
		avail = e.allocateCopies(s, t, e.minFlowRates(s, t))
	}
	var grants []SpareGrant
	if avail > dataEps { // spareFeedServer turns workahead on
		grants = sortedSpareFeed(e, s, t, avail, e.cfg.Spare == LFTF)
	}
	s.wakeAt(t)
	return grants
}

// spareFeedServer builds an engine and one server of k streams drawn
// from seed: mixed progress and buffer levels, client receive caps of
// 0 (uncapped), 30 and b_view (no headroom), full buffers, paused
// viewers, suspended slots, patch streams and multicast primaries, with
// spare bandwidth of frac times the minimum-flow demand. The same
// arguments build the same server, so two calls give two clones.
func spareFeedServer(seed int64, k int, frac float64, cfg Config) (*Engine, *server) {
	const bview, t = 3.0, 500.0
	rng := rand.New(rand.NewSource(seed))
	bw := bview * float64(k) * (1 + frac)
	cfg.ServerBandwidth = []float64{bw}
	cfg.ViewRate = bview
	cfg.Workahead = true
	cfg.BufferCapacity = 2000
	e := &Engine{cfg: cfg}
	e.discardObs()
	s := mkServer(bw, bview)
	ids := rng.Perm(4 * k)
	for i := 0; i < k; i++ {
		size := 16200.0
		start := t - 4000*rng.Float64()
		viewed := (t - start) * bview
		r := &request{
			id: int64(1 + ids[i]), size: size, start: start, viewSyncT: start,
			carryLast: t, bufCap: cfg.BufferCapacity,
			recvCap: []float64{0, 30, bview}[rng.Intn(3)],
		}
		// Buffered volume: empty, full, or anywhere in between; the
		// remaining volume is what EFTF orders by, so duplicates matter.
		switch rng.Intn(6) {
		case 0:
			r.carrySent = viewed
		case 1:
			r.carrySent = viewed + r.bufCap
		default:
			r.carrySent = viewed + r.bufCap*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			r.carrySent = math.Round(r.carrySent/600) * 600 // tied keys
		}
		r.carrySent = math.Min(r.carrySent, size)
		switch rng.Intn(12) {
		case 0:
			r.isPatch = true
		case 1:
			r.taps = 1
		case 2:
			r.pauseViewing(t, bview)
		case 3:
			r.carrySusp = t + 30
		}
		s.attach(r)
	}
	return e, s
}

// TestSpareFeedMatchesSortedFeed pins the spare feed, unaudited and
// audited, to the sorted reference: on three clones of a server, the
// production allocation round without a tap, the same round with a
// recording tap attached, and sortedRound must leave bit-identical
// rates, wake keys and wake minima. The grid covers EFTF, LFTF,
// intermittent scheduling followed by the spare feed, mixed client
// receive caps, patch taps, server sizes and spare fractions from none
// to equal to the demand. The tap must receive the reference's positive
// grants in feed order, then every other eligible candidate exactly
// once, in slot order, Skipped and with no grant.
func TestSpareFeedMatchesSortedFeed(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{name: "eftf", cfg: Config{Spare: EFTF}},
		{name: "lftf", cfg: Config{Spare: LFTF}},
		{name: "intermittent-eftf", cfg: Config{Spare: EFTF, Intermittent: true}},
		{name: "intermittent-lftf", cfg: Config{Spare: LFTF, Intermittent: true}},
	}
	for _, c := range cases {
		for _, k := range []int{1, 16, 100, 256} {
			for _, frac := range []float64{-0.1, 0, 0.003, 0.05, 0.2, 0.5, 1} {
				skipped := 0
				for seed := int64(1); seed <= 6; seed++ {
					name := fmt.Sprintf("%s/k=%d/frac=%v/seed=%d", c.name, k, frac, seed)
					hot, hs := spareFeedServer(seed, k, frac, c.cfg)
					aud, as := spareFeedServer(seed, k, frac, c.cfg)
					ref, rs := spareFeedServer(seed, k, frac, c.cfg)
					tap := &spareOrderTap{}
					aud.SetAuditTap(tap)
					hot.allocate(hs, 500)
					aud.allocate(as, 500)
					want := sortedRound(ref, rs, 500)
					for _, got := range []struct {
						feed string
						s    *server
					}{{"unaudited", hs}, {"audited", as}} {
						for i := range rs.ln.rate {
							if math.Float64bits(got.s.ln.rate[i]) != math.Float64bits(rs.ln.rate[i]) {
								t.Fatalf("%s: %s slot %d rate %v, sorted feed %v", name, got.feed, i, got.s.ln.rate[i], rs.ln.rate[i])
							}
							if math.Float64bits(got.s.ln.wake[i]) != math.Float64bits(rs.ln.wake[i]) {
								t.Fatalf("%s: %s slot %d wake %v, sorted feed %v", name, got.feed, i, got.s.ln.wake[i], rs.ln.wake[i])
							}
						}
						if math.Float64bits(got.s.ln.wakeMin) != math.Float64bits(rs.ln.wakeMin) {
							t.Fatalf("%s: %s wakeMin %v, sorted feed %v", name, got.feed, got.s.ln.wakeMin, rs.ln.wakeMin)
						}
					}
					skipped += checkSpareReport(t, name, tap, want, rs)
				}
				if k > 1 && frac >= 0.05 && skipped == 0 {
					t.Fatalf("%s/k=%d/frac=%v: no audited feed skipped a candidate", c.name, k, frac)
				}
			}
		}
	}
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

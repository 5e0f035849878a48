package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sortedFeedTap routes the allocators through their sorted (audited)
// feeds and checks nothing. Only the feed-order taps are implemented:
// the test drives single allocation rounds, which call no other tap.
type sortedFeedTap struct {
	AuditTap
	spareFeeds int
}

func (tp *sortedFeedTap) SpareOrder(float64, int32, SpareDiscipline, []SpareGrant) error {
	tp.spareFeeds++
	return nil
}

func (tp *sortedFeedTap) IntermittentOrder(float64, int32, []IntermittentGrant) error {
	return nil
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

// TestSpareFeedMatchesSortedFeed pins the hot spare feed to the sorted
// one. An attached auditor switches every feed to the sorted path, so
// no audit rule ever sees the bounded prefix feed; this test is its
// guard. On cloned servers the unaudited allocation round and the
// sorted one must leave bit-identical rates, wake keys and wake minima
// across EFTF, LFTF, the forced misorder, intermittent scheduling
// followed by the spare feed, mixed client receive caps, patch taps,
// server sizes and spare fractions from none to equal to the demand.
func TestSpareFeedMatchesSortedFeed(t *testing.T) {
	cases := []struct {
		name     string
		cfg      Config
		misorder bool
	}{
		{name: "eftf", cfg: Config{Spare: EFTF}},
		{name: "lftf", cfg: Config{Spare: LFTF}},
		{name: "misorder", cfg: Config{Spare: EFTF}, misorder: true},
		{name: "intermittent-eftf", cfg: Config{Spare: EFTF, Intermittent: true}},
		{name: "intermittent-lftf", cfg: Config{Spare: LFTF, Intermittent: true}},
	}
	for _, c := range cases {
		for _, k := range []int{1, 16, 100, 256} {
			for _, frac := range []float64{-0.1, 0, 0.003, 0.05, 0.2, 0.5, 1} {
				feeds := 0
				for seed := int64(1); seed <= 6; seed++ {
					name := fmt.Sprintf("%s/k=%d/frac=%v/seed=%d", c.name, k, frac, seed)
					hot, hs := spareFeedServer(seed, k, frac, c.cfg)
					ref, rs := spareFeedServer(seed, k, frac, c.cfg)
					tap := &sortedFeedTap{}
					ref.SetAuditTap(tap)
					hot.spareMisorder, ref.spareMisorder = c.misorder, c.misorder
					hot.allocate(hs, 500)
					ref.allocate(rs, 500)
					for i := range hs.ln.rate {
						if math.Float64bits(hs.ln.rate[i]) != math.Float64bits(rs.ln.rate[i]) {
							t.Fatalf("%s: slot %d rate %v, sorted feed %v", name, i, hs.ln.rate[i], rs.ln.rate[i])
						}
						if math.Float64bits(hs.ln.wake[i]) != math.Float64bits(rs.ln.wake[i]) {
							t.Fatalf("%s: slot %d wake %v, sorted feed %v", name, i, hs.ln.wake[i], rs.ln.wake[i])
						}
					}
					if math.Float64bits(hs.ln.wakeMin) != math.Float64bits(rs.ln.wakeMin) {
						t.Fatalf("%s: wakeMin %v, sorted feed %v", name, hs.ln.wakeMin, rs.ln.wakeMin)
					}
					feeds += tap.spareFeeds
				}
				if k > 1 && frac >= 0.05 && feeds == 0 {
					t.Fatalf("%s/k=%d/frac=%v: the sorted feed never ran", c.name, k, frac)
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"slices"
	"testing"

	"semicont/internal/rng"
	"semicont/internal/simtime"
)

// Micro-benchmarks of the simulator's hot paths. The allocator benches
// are parameterized over the per-server active count k; BENCH_alloc.json
// at the repo root holds the pre-refactor baseline these numbers are
// compared against (see DESIGN.md, "Architecture layers").

// benchKs are the per-server active counts the allocator benches sweep.
var benchKs = []int{16, 256, 4096}

// benchSpares are the spare fractions the spare-feeding benches run at,
// each with its sub-benchmark name prefix: the production sliver (10%
// of the minimum-flow demand, ~k/90 candidates fed at 27 Mb/s of
// receive headroom each) keeps the historical names, and full spare
// (100%, ~k/9 fed) is the heavy case for the bounded prefix feed.
var benchSpares = []struct {
	prefix string
	frac   float64
}{{"", 0.1}, {"spare=100%/", 1}}

// benchOrders are the slot orders the spare-feeding benches run in,
// each with its sub-benchmark name prefix. benchEngine's order keeps
// the historical names: its slots' remaining volumes fall with the slot
// index in runs of 117, so a scan meets the EFTF feed order back to
// front, the bounded prefix feed's worst case. "shuffled/" re-attaches
// the same requests in a seeded random order (shuffleSlots).
// BENCH_alloc.json's slot_order section compares the share of slots
// each order inserts into the prefix with production rounds' share.
// "fullbuf/" is the shuffled order with the client buffer full on a
// seeded 70% of the slots (fillBuffers), the production shape:
// production rounds reject 45–93% of their slots at the buffer test.
var benchOrders = []benchOrder{{"", false, 0}, {"shuffled/", true, 0}, {"fullbuf/", true, 0.7}}

type benchOrder struct {
	prefix   string
	shuffled bool
	full     float64 // share of slots whose client buffer is full
}

// arrange puts s's slots in the order o names, drawn from seed.
func (o benchOrder) arrange(s *server, seed uint64) {
	if o.shuffled {
		shuffleSlots(s, seed)
	}
	if o.full > 0 {
		fillBuffers(s, o.full, seed)
	}
}

// shuffleSlots puts s's slots in a random order drawn from seed: it
// moves every slot to a scratch lane, then back in that order.
func shuffleSlots(s *server, seed uint64) {
	reqs := slices.Clone(s.active)
	rng.New(seed).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	tmp := new(server)
	for len(s.active) > 0 {
		s.move(s.active[0], tmp)
	}
	for _, r := range reqs {
		tmp.move(r, s)
	}
}

// fillBuffers fills the client buffer of a share of s's slots, chosen
// from seed: each such client's buffer capacity becomes its buffer at
// t = 0, so the spare gather's buffer test rejects the slot.
func fillBuffers(s *server, share float64, seed uint64) {
	bview := 3.0
	for _, i := range rng.New(rng.DeriveSeed(seed, 1)).Perm(len(s.active))[:int(share*float64(len(s.active)))] {
		c := s.bufferOf(i, 0, bview)
		s.ln.meta[i].BufCap = c
	}
}

// benchEngine builds a bare engine and one server carrying k active
// requests with mixed progress. spareFrac of the minimum-flow demand is
// left over as spare bandwidth, so the workahead spreader has work to
// do but only feeds a small prefix of the candidates (the production
// shape: a busy server with a sliver of spare).
func benchEngine(k int, spareFrac float64, intermittent bool) (*Engine, *server) {
	bview := 3.0
	bw := bview * float64(k) * (1 + spareFrac)
	cfg := Config{
		ServerBandwidth: []float64{bw}, ViewRate: bview,
		Workahead: true, ReceiveCap: 30, BufferCapacity: 20000,
		Intermittent: intermittent,
	}
	e := &Engine{cfg: cfg}
	s := mkServer(bw, bview)
	for i := 0; i < k; i++ {
		attachSlot(s, &request{id: int64(i + 1), size: 16200}, slotState{
			sent: float64(i*137%16000) + 1, bufCap: cfg.BufferCapacity, recvCap: cfg.ReceiveCap,
		})
	}
	return e, s
}

func BenchmarkEventQueue(b *testing.B) {
	var q simtime.Queue[event]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Steady-state churn: push two, pop one, like a busy server.
		t := float64(i)
		q.Push(t+1, event{kind: evServerWake, server: 0, version: uint64(i)})
		q.Push(t+2, event{kind: evArrival})
		q.Pop()
	}
}

// BenchmarkAllocate measures one full allocation pass of the min-flow +
// EFTF policy, including the next-wake computation that every
// reschedule performs, in each of benchOrders' slot orders.
func BenchmarkAllocate(b *testing.B) {
	for _, o := range benchOrders {
		for _, sp := range benchSpares {
			for _, k := range benchKs {
				b.Run(fmt.Sprintf("%s%sk=%d", o.prefix, sp.prefix, k), func(b *testing.B) {
					e, s := benchEngine(k, sp.frac, false)
					o.arrange(s, uint64(k))
					benchAllocateWake(e, s) // grow the feed scratch
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						benchAllocateWake(e, s)
					}
				})
			}
		}
	}
}

// noopSpareTap accepts every SpareOrder report and checks nothing. Only
// SpareOrder is implemented: a min-flow allocation round calls no other
// tap.
type noopSpareTap struct{ AuditTap }

func (noopSpareTap) SpareOrder(float64, int32, SpareDiscipline, []SpareGrant) error { return nil }

// BenchmarkAllocateAudited is BenchmarkAllocate with a SpareOrder tap
// attached: the audited EFTF feed, which lists every candidate and
// reports the fed and the skipped ones, without the auditor's own
// checks.
func BenchmarkAllocateAudited(b *testing.B) {
	for _, sp := range benchSpares {
		for _, k := range benchKs {
			b.Run(fmt.Sprintf("%sk=%d", sp.prefix, k), func(b *testing.B) {
				e, s := benchEngine(k, sp.frac, false)
				e.SetAuditTap(noopSpareTap{})
				benchAllocateWake(e, s) // grow the grant and candidate scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchAllocateWake(e, s)
				}
			})
		}
	}
}

// BenchmarkAllocateSaturated is the common case under 100% offered
// load: zero spare bandwidth, so the candidate machinery must be
// skipped entirely.
func BenchmarkAllocateSaturated(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e, s := benchEngine(k, 0, false)
			benchAllocateWake(e, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAllocateWake(e, s)
			}
		})
	}
}

// BenchmarkSpreadSpare isolates the workahead spreader on its
// second-sweep path: rates are reset to the minimum flow each
// iteration, then spreadSpare gathers the candidates in the standalone
// sweep with the exact spare and feeds them in EFTF order, rewriting
// the fed slots' wake keys, in each of benchOrders' slot orders. That is
// the path of intermittent rounds and of minimum-flow rounds that idle
// a slot; a minimum-flow round without held slots gathers in the sweep
// that assigns b_view instead, which BenchmarkAllocate measures.
func BenchmarkSpreadSpare(b *testing.B) {
	for _, o := range benchOrders {
		for _, sp := range benchSpares {
			for _, k := range benchKs {
				b.Run(fmt.Sprintf("%s%sk=%d", o.prefix, sp.prefix, k), func(b *testing.B) {
					e, s := benchEngine(k, sp.frac, false)
					o.arrange(s, uint64(k))
					spare := s.bandwidth - 3*float64(k)
					// One untimed pass from the loop's start state grows the
					// feed scratch.
					for j := range s.ln.rate {
						s.ln.rate[j] = 3
					}
					benchSpreadSpare(e, s, spare)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range s.ln.rate {
							s.ln.rate[j] = 3
						}
						benchSpreadSpare(e, s, spare)
					}
				})
			}
		}
	}
}

// BenchmarkNextWake measures the production next-wake query against the
// incremental wake index, with the worst case forced every iteration: the
// index is marked dirty so the query pays a full lazy repair (a
// compare-only rescan of the stored keys). The common case — wakeMin
// still valid — is a two-field read and benches at the measurement
// floor, so the repair path is the honest number.
func BenchmarkNextWake(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e, s := benchEngine(k, 0.1, false)
			benchAllocateWake(e, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ln.wakeDirty = true
				s.wakeAt(0)
			}
		})
	}
}

// BenchmarkNextWakeScan measures the from-scratch reference scan
// (recomputing every wake key from live rates), the pre-refactor cost
// every reschedule used to pay.
func BenchmarkNextWakeScan(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e, s := benchEngine(k, 0.1, false)
			benchAllocateWake(e, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.nextWake(s, 0)
			}
		})
	}
}

// BenchmarkIntermittent measures one intermittent allocation pass
// (ascending-buffer feed, then EFTF spread of the leftovers) including
// the next-wake computation. The server is over-subscribed by ~10% so
// the pause branch is exercised.
func BenchmarkIntermittent(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e, s := benchEngine(k, 0.1, true)
			s.bandwidth = 3 * float64(k) * 0.9 // over-subscribed
			benchAllocateWake(e, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchAllocateWake(e, s)
			}
		})
	}
}

// TestAllocationRoundZeroAlloc pins the steady state the allocator
// benchmarks report: once a round has grown the engine's scratch
// (AllocsPerRun's warm-up call), an allocation round allocates nothing,
// under every spare discipline and the intermittent scheduler, at every
// benchmarked k.
func TestAllocationRoundZeroAlloc(t *testing.T) {
	cases := []struct {
		name         string
		spare        SpareDiscipline
		intermittent bool
	}{
		{"eftf", EFTF, false},
		{"lftf", LFTF, false},
		{"even-split", EvenSplit, false},
		{"intermittent", EFTF, true},
	}
	for _, c := range cases {
		for _, k := range benchKs {
			e, s := benchEngine(k, 0.1, c.intermittent)
			e.cfg.Spare = c.spare
			if c.intermittent {
				s.bandwidth = 3 * float64(k) * 0.9 // over-subscribed, as BenchmarkIntermittent
			}
			if got := testing.AllocsPerRun(20, func() { benchAllocateWake(e, s) }); got != 0 {
				t.Errorf("%s/k=%d: allocation round allocates %.1f per op, want 0", c.name, k, got)
			}
		}
	}
}

package workload

import (
	"math"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/rng"
)

func benchCatalog() (*catalog.Catalog, error) {
	return catalog.Generate(catalog.Config{
		NumVideos: 50, MinLength: 600, MaxLength: 1800, ViewRate: 3, Theta: 0.271,
	}, rng.New(1))
}

func TestCurveValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Curve
		ok   bool
	}{
		{"zero", Curve{}, true},
		{"diurnal", Curve{DiurnalAmp: 0.5}, true},
		{"diurnal with period", Curve{DiurnalAmp: 0.5, DiurnalPeriod: 3600}, true},
		{"flash", Curve{FlashAt: 100, FlashDuration: 50, FlashFactor: 2, FlashVideo: 3}, true},
		{"both", Curve{DiurnalAmp: 0.2, FlashAt: 0, FlashDuration: 50, FlashFactor: 2}, true},
		{"amp one", Curve{DiurnalAmp: 1}, false},
		{"amp negative", Curve{DiurnalAmp: -0.1}, false},
		{"amp NaN", Curve{DiurnalAmp: math.NaN()}, false},
		{"period without amp", Curve{DiurnalPeriod: 3600}, false},
		{"period negative", Curve{DiurnalAmp: 0.5, DiurnalPeriod: -1}, false},
		{"factor in (0,1)", Curve{FlashDuration: 50, FlashFactor: 0.5}, false},
		{"factor one", Curve{FlashDuration: 50, FlashFactor: 1}, false},
		{"factor inf", Curve{FlashDuration: 50, FlashFactor: math.Inf(1)}, false},
		{"flash without duration", Curve{FlashFactor: 2}, false},
		{"flash video out of range", Curve{FlashDuration: 50, FlashFactor: 2, FlashVideo: 50}, false},
		{"flash video negative", Curve{FlashDuration: 50, FlashFactor: 2, FlashVideo: -1}, false},
		{"stray flash window", Curve{FlashAt: 100}, false},
		{"stray flash video", Curve{FlashVideo: 3}, false},
		{"flash at NaN", Curve{FlashAt: math.NaN(), FlashDuration: 50, FlashFactor: 2}, false},
	}
	for _, tc := range cases {
		err := tc.c.Validate(50)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestNonStationaryErrors(t *testing.T) {
	cat := testCatalog(t, 1)
	if _, err := NewNonStationary(cat, 0, rng.New(1), Curve{DiurnalAmp: 0.5}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewNonStationary(cat, 1, rng.New(1), Curve{DiurnalAmp: 2}); err == nil {
		t.Error("invalid curve accepted")
	}
}

// stationary is the reference Poisson stream: one exponential gap,
// then one popularity draw, per arrival.
type stationary struct {
	cat  *catalog.Catalog
	p    *rng.PCG
	rate float64
	next float64
}

func (s *stationary) Next() Request {
	r := Request{Arrival: s.next, Video: s.cat.Sample(s.p)}
	s.next += s.p.ExpFloat64() / s.rate
	return r
}

// TestThinningConstantCurveBitIdentical is the metamorphic pin for the
// thinning machinery: with a constant curve the envelope equals the
// shape everywhere, every candidate is accepted without an acceptance
// draw, and the generator must replay the stationary reference stream
// bit for bit — same arrival instants, same videos, same RNG
// consumption.
func TestThinningConstantCurveBitIdentical(t *testing.T) {
	cat := testCatalog(t, 0.271)
	const rate = 0.8
	thin, err := New(cat, rate, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ref := &stationary{cat: cat, p: rng.New(42), rate: rate}
	ref.next = ref.p.ExpFloat64() / rate
	for i := 0; i < 20000; i++ {
		a, b := thin.Next(), ref.Next()
		if a != b {
			t.Fatalf("request %d: thinned %+v != stationary %+v", i, a, b)
		}
	}
}

func TestThinningMonotoneAndPeek(t *testing.T) {
	cat := testCatalog(t, 0.271)
	g, err := NewNonStationary(cat, 0.5, rng.New(9), Curve{
		DiurnalAmp: 0.8, DiurnalPeriod: 7200,
		FlashAt: 3000, FlashDuration: 1000, FlashFactor: 3, FlashVideo: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i := 0; i < 10000; i++ {
		peeked := g.Peek()
		r := g.Next()
		if r.Arrival != peeked {
			t.Fatalf("Peek() = %v but Next().Arrival = %v", peeked, r.Arrival)
		}
		if r.Arrival < prev {
			t.Fatalf("arrival %d at %v before previous %v", i, r.Arrival, prev)
		}
		if r.Video < 0 || r.Video >= cat.Len() {
			t.Fatalf("video id %d out of range", r.Video)
		}
		prev = r.Arrival
	}
}

// TestDiurnalModulation checks the thinned process actually follows the
// curve: over whole periods the mean rate equals λ (the sine integrates
// to zero), while the rising half-period carries ≈(1+2a/π)/(1−2a/π)
// times the arrivals of the falling half.
func TestDiurnalModulation(t *testing.T) {
	cat := testCatalog(t, 1)
	const (
		rate    = 1.0
		period  = 10000.0
		amp     = 0.8
		periods = 100
	)
	g, err := NewNonStationary(cat, rate, rng.New(11), Curve{DiurnalAmp: amp, DiurnalPeriod: period})
	if err != nil {
		t.Fatal(err)
	}
	var peak, trough, total int
	for {
		r := g.Next()
		if r.Arrival >= period*periods {
			break
		}
		total++
		if math.Mod(r.Arrival, period) < period/2 {
			peak++
		} else {
			trough++
		}
	}
	wantTotal := rate * period * periods
	if got := float64(total); math.Abs(got-wantTotal)/wantTotal > 0.02 {
		t.Errorf("total arrivals %v, want ≈%v (mean rate must stay λ)", got, wantTotal)
	}
	wantRatio := (1 + 2*amp/math.Pi) / (1 - 2*amp/math.Pi)
	if got := float64(peak) / float64(trough); math.Abs(got-wantRatio)/wantRatio > 0.05 {
		t.Errorf("peak/trough ratio %v, want ≈%v", got, wantRatio)
	}
}

// TestFlashCrowd checks the flash window: the in-window rate multiplies
// by the factor and the surge excess requests the flash video.
func TestFlashCrowd(t *testing.T) {
	cat := testCatalog(t, 1)
	const (
		rate    = 1.0
		at      = 50000.0
		dur     = 20000.0
		factor  = 4.0
		video   = 7
		horizon = 200000.0
	)
	g, err := NewNonStationary(cat, rate, rng.New(13), Curve{
		FlashAt: at, FlashDuration: dur, FlashFactor: factor, FlashVideo: video,
	})
	if err != nil {
		t.Fatal(err)
	}
	var inWin, outWin, flashVid int
	for {
		r := g.Next()
		if r.Arrival >= horizon {
			break
		}
		if r.Arrival >= at && r.Arrival < at+dur {
			inWin++
			if r.Video == video {
				flashVid++
			}
		} else {
			outWin++
		}
	}
	if got, want := float64(inWin)/dur, rate*factor; math.Abs(got-want)/want > 0.03 {
		t.Errorf("in-window rate %v, want ≈%v", got, want)
	}
	if got, want := float64(outWin)/(horizon-dur), rate; math.Abs(got-want)/want > 0.03 {
		t.Errorf("out-of-window rate %v, want ≈%v", got, want)
	}
	// In-window flash-video share: the surge excess (f−1)/f plus the
	// base process occasionally picking it by popularity.
	pv := cat.Video(video).Prob
	want := (factor - 1) / factor * (1 - pv)
	if got := float64(flashVid)/float64(inWin) - pv; math.Abs(got-want) > 0.02 {
		t.Errorf("flash-video excess share %v, want ≈%v", got, want)
	}
}

// BenchmarkArrivalThinning measures the per-arrival cost of a
// modulated curve against the zero curve (stationary arrivals).
func BenchmarkArrivalThinning(b *testing.B) {
	cat, err := benchCatalog()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("stationary", func(b *testing.B) {
		g, err := New(cat, 1, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Next()
		}
	})
	b.Run("thinned", func(b *testing.B) {
		g, err := NewNonStationary(cat, 1, rng.New(1), Curve{
			DiurnalAmp: 0.5, DiurnalPeriod: 86400,
			FlashAt: 3600, FlashDuration: 1800, FlashFactor: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.Next()
		}
	})
}

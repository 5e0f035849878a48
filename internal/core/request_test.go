package core

import (
	"testing"
	"testing/quick"
)

func TestRequestSync(t *testing.T) {
	r := &request{size: 3600, start: 0, carryLast: 0, carryRate: 6}
	r.syncTo(100)
	if !approx(r.carrySent, 600, 1e-9) {
		t.Errorf("sent = %v, want 600", r.carrySent)
	}
	// Sync is idempotent and never moves backwards.
	r.syncTo(100)
	r.syncTo(50)
	if !approx(r.carrySent, 600, 1e-9) {
		t.Errorf("sent after re-sync = %v, want 600", r.carrySent)
	}
	if r.carryLast != 100 {
		t.Errorf("last = %v, want 100", r.carryLast)
	}
}

func TestRequestSyncClampsAtSize(t *testing.T) {
	r := &request{size: 100, carryRate: 10, carryLast: 0}
	r.syncTo(1000)
	if r.carrySent != 100 {
		t.Errorf("sent = %v, want clamp at size 100", r.carrySent)
	}
	if r.carrySent < r.size-dataEps {
		t.Error("request not finished after transmitting everything")
	}
}

func TestViewedAt(t *testing.T) {
	r := &request{size: 300, start: 10, viewSyncT: 10}
	const bview = 3.0
	cases := []struct{ t, want float64 }{
		{5, 0},     // before start
		{10, 0},    // at start
		{20, 30},   // mid-play
		{110, 300}, // exactly done
		{500, 300}, // capped at size
	}
	for _, c := range cases {
		if got := r.viewedAt(c.t, bview); !approx(got, c.want, 1e-9) {
			t.Errorf("viewedAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestBufferAt(t *testing.T) {
	const bview = 3.0
	r := &request{size: 3000, start: 0, carryLast: 0, carryRate: 9}
	r.syncTo(100) // sent 900, viewed 300
	if got := r.bufferAt(100, bview); !approx(got, 600, 1e-9) {
		t.Errorf("buffer = %v, want 600", got)
	}
}

func TestBufferNeverNegative(t *testing.T) {
	const bview = 3.0
	r := &request{size: 3000, start: 0, carryLast: 0, carryRate: 3}
	r.syncTo(10)
	// sent == viewed: float noise must not yield a negative buffer.
	if got := r.bufferAt(10, bview); got < 0 {
		t.Errorf("buffer = %v < 0", got)
	}
}

// Property: for any play history with rate ≥ b_view, the fluid
// invariants hold: 0 ≤ viewed ≤ sent ≤ size.
func TestFluidInvariantProperty(t *testing.T) {
	const bview = 3.0
	prop := func(rateRaw, sizeRaw uint16, steps []uint8) bool {
		rate := bview + float64(rateRaw%100)
		size := 300 + float64(sizeRaw%10000)
		r := &request{size: size, start: 0, carryLast: 0, carryRate: rate}
		now := 0.0
		for _, s := range steps {
			now += float64(s) / 7
			r.syncTo(now)
			viewed := r.viewedAt(now, bview)
			if viewed < 0 || viewed > r.carrySent+dataEps || r.carrySent > r.size+dataEps {
				return false
			}
			if r.bufferAt(now, bview) < 0 {
				return false
			}
			if r.carrySent >= r.size-dataEps {
				r.carryRate = 0
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

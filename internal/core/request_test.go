package core

import (
	"testing"
	"testing/quick"
)

// oneSlot returns a server whose only stream, of size Mb, transmits at
// rate from t=0 and starts playing at start.
func oneSlot(size, rate, start float64) *server {
	s := mkServer(100, 3)
	attachSlot(s, &request{id: 1, size: size, start: start}, slotState{rate: rate, viewT: start})
	return s
}

func TestRequestSync(t *testing.T) {
	s := oneSlot(3600, 6, 0)
	s.syncAll(100)
	if !approx(s.ln.sent[0], 600, 1e-9) {
		t.Errorf("sent = %v, want 600", s.ln.sent[0])
	}
	// Sync is idempotent and never moves backwards.
	s.syncAll(100)
	s.syncAll(50)
	if !approx(s.ln.sent[0], 600, 1e-9) {
		t.Errorf("sent after re-sync = %v, want 600", s.ln.sent[0])
	}
	if s.ln.last[0] != 100 {
		t.Errorf("last = %v, want 100", s.ln.last[0])
	}
}

func TestRequestSyncClampsAtSize(t *testing.T) {
	s := oneSlot(100, 10, 0)
	s.syncAll(1000)
	if s.ln.sent[0] != 100 {
		t.Errorf("sent = %v, want clamp at size 100", s.ln.sent[0])
	}
	if !s.finishedAt(0) {
		t.Error("request not finished after transmitting everything")
	}
}

func TestViewedAt(t *testing.T) {
	s := oneSlot(300, 0, 10)
	const bview = 3.0
	cases := []struct{ t, want float64 }{
		{5, 0},     // before start
		{10, 0},    // at start
		{20, 30},   // mid-play
		{110, 300}, // exactly done
		{500, 300}, // capped at size
	}
	for _, c := range cases {
		if got := s.ln.viewedAt(0, c.t, bview); !approx(got, c.want, 1e-9) {
			t.Errorf("viewedAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestBufferAt(t *testing.T) {
	const bview = 3.0
	s := oneSlot(3000, 9, 0)
	s.syncAll(100) // sent 900, viewed 300
	if got := s.bufferOf(0, 100, bview); !approx(got, 600, 1e-9) {
		t.Errorf("buffer = %v, want 600", got)
	}
}

func TestBufferNeverNegative(t *testing.T) {
	const bview = 3.0
	s := oneSlot(3000, 3, 0)
	s.syncAll(10)
	// sent == viewed: float noise must not yield a negative buffer.
	if got := s.bufferOf(0, 10, bview); got < 0 {
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
		s := oneSlot(size, rate, 0)
		ln := &s.ln
		now := 0.0
		for _, st := range steps {
			now += float64(st) / 7
			s.syncAll(now)
			viewed := ln.viewedAt(0, now, bview)
			if viewed < 0 || viewed > ln.sent[0]+dataEps || ln.sent[0] > size+dataEps {
				return false
			}
			if s.bufferOf(0, now, bview) < 0 {
				return false
			}
			if ln.sent[0] >= size-dataEps {
				ln.rate[0] = 0
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

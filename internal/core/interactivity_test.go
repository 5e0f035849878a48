package core

import (
	"math"
	"testing"

	"semicont/internal/workload"
)

func TestInteractivityValidation(t *testing.T) {
	cases := []struct {
		cfg InteractivityConfig
		ok  bool
	}{
		{InteractivityConfig{}, true},
		{InteractivityConfig{PauseProb: 0.5, MinPause: 10, MaxPause: 60}, true},
		{InteractivityConfig{PauseProb: -0.1}, false},
		{InteractivityConfig{PauseProb: 1.5}, false},
		{InteractivityConfig{PauseProb: 0.5}, false},                             // no durations
		{InteractivityConfig{PauseProb: 0.5, MinPause: 60, MaxPause: 10}, false}, // inverted
	}
	for i, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("case %d: err=%v, want ok=%v", i, err, tc.ok)
		}
	}
}

// pauseEngine runs a single stream with a deterministic pause injected
// via the event queue (PauseProb=1 covers the random path elsewhere).
func TestPauseExtendsBufferAndStopsDrain(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200) // 3600 Mb
	cfg := Config{
		ServerBandwidth: []float64{30},
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  600,
		ReceiveCap:      30,
		Interactivity:   InteractivityConfig{PauseProb: 1, MinPause: 100, MaxPause: 100},
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 0, Video: 0}})
	e.SetObserver(obs)
	m := run(t, e, 4000)
	if m.Accepted != 1 || m.Completions != 1 {
		t.Fatalf("accepted=%d completions=%d", m.Accepted, m.Completions)
	}
	if m.ViewerPauses != 1 {
		t.Errorf("ViewerPauses = %d, want 1", m.ViewerPauses)
	}
	// Conservation still holds.
	if !approx(m.DeliveredBytes, 3600, 1e-6) {
		t.Errorf("delivered %v", m.DeliveredBytes)
	}
}

func TestPauseWithoutBufferStopsTransmission(t *testing.T) {
	// No staging buffer: when the viewer pauses, the client can store
	// nothing, so the server must stop sending — the stream finishes a
	// pause-duration later than it otherwise would.
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{30},
		ViewRate:        3,
		// no workahead, no buffer
		Interactivity: InteractivityConfig{PauseProb: 1, MinPause: 200, MaxPause: 200},
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 0, Video: 0}})
	e.SetObserver(obs)
	m := run(t, e, 5000)
	if m.ViewerPauses != 1 {
		t.Fatalf("ViewerPauses = %d", m.ViewerPauses)
	}
	// Finish = 1200 s of transmission + the 200 s stall.
	if got := obs.finishes[1]; !approx(got, 1400, 1e-6) {
		t.Errorf("finish at %v, want 1400", got)
	}
	if m.Completions != 1 {
		t.Errorf("completions = %d", m.Completions)
	}
}

func TestPauseNeverAcceleratesTransmission(t *testing.T) {
	// Total transmittable data by time T is viewed(T) + bufCap; a pause
	// freezes viewed, so transmission completion can only move later
	// (by exactly the pause duration when the buffer is pinned at
	// capacity around the pause, as here: the buffer fills at t≈22 and
	// every legal pause point lies after t=60).
	finishWith := func(interact InteractivityConfig) float64 {
		cat := fixedCatalog(t, 1, 1200)
		cfg := Config{
			ServerBandwidth: []float64{30},
			ViewRate:        3,
			Workahead:       true,
			BufferCapacity:  600,
			ReceiveCap:      30,
			Interactivity:   interact,
		}
		obs := newFinishObserver()
		e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 0, Video: 0}})
		e.SetObserver(obs)
		run(t, e, 5000)
		return obs.finishes[1]
	}
	plain := finishWith(InteractivityConfig{})
	if !approx(plain, 1000, 1e-6) {
		t.Fatalf("plain finish = %v, want 1000 (22.2 s fill + 2934 Mb at b_view)", plain)
	}
	paused := finishWith(InteractivityConfig{PauseProb: 1, MinPause: 300, MaxPause: 300})
	if paused < plain-1e-6 {
		t.Fatalf("pause accelerated transmission: %v < %v", paused, plain)
	}
	// Either the draw paused after the transmission finished (no shift)
	// or mid-transmission (shift by the full 300 s, since the buffer is
	// capped for the whole window).
	if !approx(paused, plain, 1e-6) && !approx(paused, plain+300, 1e-6) {
		t.Errorf("paused finish = %v, want %v or %v", paused, plain, plain+300)
	}
}

func TestPauseAfterTransmissionCompleteIsMoot(t *testing.T) {
	// A fast transmission finishes long before the viewer's pause
	// point; the pause event must be ignored gracefully.
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{100},
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  1e9,
		ReceiveCap:      0, // finish at t=36, pause lands mid-playback later
		Interactivity:   InteractivityConfig{PauseProb: 1, MinPause: 50, MaxPause: 50},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 0, Video: 0}})
	m := run(t, e, 5000)
	if m.Completions != 1 {
		t.Fatalf("completions = %d", m.Completions)
	}
	// The pause might race the 36 s finish only for pause points below
	// 9% of playback; with the fixed seed either outcome is legal, but
	// the run must stay consistent (invariants checked throughout).
	if m.ViewerPauses > 1 {
		t.Errorf("ViewerPauses = %d", m.ViewerPauses)
	}
}

func TestInteractivityDeterministic(t *testing.T) {
	build := func() *Metrics {
		cat := fixedCatalog(t, 2, 900)
		cfg := Config{
			ServerBandwidth: []float64{30, 30},
			ViewRate:        3,
			Workahead:       true,
			BufferCapacity:  540,
			ReceiveCap:      30,
			Interactivity:   InteractivityConfig{PauseProb: 0.5, MinPause: 30, MaxPause: 300, Seed: 5},
		}
		reqs := make([]workload.Request, 0, 40)
		for i := 0; i < 40; i++ {
			reqs = append(reqs, workload.Request{Arrival: float64(i * 25), Video: i % 2})
		}
		e := newTestEngine(t, cfg, cat, [][]int{{0, 1}, {0, 1}}, reqs)
		return run(t, e, 4000)
	}
	a, b := build(), build()
	if *a != *b {
		t.Errorf("interactive runs with equal seeds diverged")
	}
	if a.ViewerPauses == 0 {
		t.Error("no pauses occurred at PauseProb=0.5 over 40 streams")
	}
}

func TestPausedViewerNotUrgent(t *testing.T) {
	cfg := Config{
		ServerBandwidth: []float64{30}, ViewRate: 3,
		Workahead: true, BufferCapacity: 1e6, Intermittent: true,
	}
	e := &Engine{cfg: cfg}
	s := mkServer(30, 3)
	r := addReq(e, s, 1, 3600, 0, 0, 0) // empty buffer: urgent...
	if got := e.urgentCount(s, 0); got != 1 {
		t.Fatalf("urgentCount = %d, want 1", got)
	}
	s.pauseView(int(r.slot), 0, 3) // ...unless the viewer has paused
	if got := e.urgentCount(s, 0); got != 0 {
		t.Errorf("urgentCount = %d, want 0 for a paused viewer", got)
	}
}

// TestViewedAtWhilePaused plays one pause/resume script on a slot's
// viewer state, which must follow the playback formula, and then moves
// the paused slot: a moved slot keeps every column and every SlotMeta
// field bit for bit, except that its wake key starts at +Inf and a
// migration adds one hop.
func TestViewedAtWhilePaused(t *testing.T) {
	const bview = 3.0
	s := mkServer(30, bview)
	r := &request{id: 1, size: 3600}
	attachSlot(s, r, slotState{rate: 6, bufCap: 900, recvCap: 30})
	other := &request{id: 2, size: 1800}
	s.attach(other, 0, 0, 0)
	check := func(at, want float64, what string) {
		t.Helper()
		if got := s.ln.viewedAt(int(r.slot), at, bview); !approx(got, want, 1e-9) {
			t.Errorf("%s: viewedAt(%v) = %v, want %v", what, at, got, want)
		}
	}
	check(100, 300, "playing")
	s.pauseView(0, 100, bview)
	check(500, 300, "paused")
	s.resumeView(0, 500)
	check(600, 600, "resumed")
	s.syncAll(700)
	s.pauseView(0, 700, bview)
	s.setSuspend(r, 710)
	s.ln.flags[0] |= SlotGlitched
	s.ln.meta[0].Hops = 2
	s.ln.setWake(0, 750)

	want := slotOf(s, r)
	want.wake = math.Inf(1)
	to := mkServer(30, bview)
	to.id = 1
	s.move(r, to)
	if r.server != 1 || r.slot != 0 || other.slot != 0 || s.ln.meta[0].ID != other.id {
		t.Fatalf("after the move: request at server %d slot %d, the other stream in slot %d holding id %d",
			r.server, r.slot, other.slot, s.ln.meta[0].ID)
	}
	if got := slotOf(to, r); got != want {
		t.Errorf("moved slot\n got %+v\nwant %+v", got, want)
	}
	e := &Engine{}
	e.migrate(r, to, s, 700, false)
	want.meta.Hops++
	if got := slotOf(s, r); got != want || r.server != 0 {
		t.Errorf("migrated slot on server %d\n got %+v\nwant %+v", r.server, got, want)
	}
}

// laneSlot is one slot's columns and SlotMeta, for comparing slots.
type laneSlot struct {
	rate, sent, last, susp, size, wake float64
	flags                              uint8
	meta                               SlotMeta
}

// slotOf reads r's slot from s's lane.
func slotOf(s *server, r *request) laneSlot {
	ln, i := &s.ln, r.slot
	return laneSlot{ln.rate[i], ln.sent[i], ln.last[i], ln.susp[i], ln.size[i], ln.wake[i], ln.flags[i], ln.meta[i]}
}

package core

import (
	"testing"

	"semicont/internal/workload"
)

func TestPatchingValidation(t *testing.T) {
	if err := (EdgeConfig{Batch: BatchPatch, BatchWindow: -1}).Validate(); err == nil {
		t.Error("negative window accepted")
	}
	base := Config{
		ServerBandwidth: []float64{30}, ViewRate: 3,
		Workahead: true, BufferCapacity: 600,
		Edge: EdgeConfig{Batch: BatchPatch},
	}
	if err := base.Validate(); err != nil {
		t.Errorf("valid patching config rejected: %v", err)
	}
	bad := base
	bad.Intermittent = true
	if err := bad.Validate(); err == nil {
		t.Error("patching + intermittent accepted")
	}
	bad = base
	bad.Interactivity = InteractivityConfig{PauseProb: 0.5, MinPause: 10, MaxPause: 20}
	if err := bad.Validate(); err == nil {
		t.Error("patching + interactivity accepted")
	}
}

// patchScenario: one 2-slot server holding a 1200 s video; the second
// request arrives 100 s into the first stream.
func patchScenario(t *testing.T, window, bufCap float64, arrivals []workload.Request) (*Engine, *finishObserver) {
	t.Helper()
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{6},
		ViewRate:        3,
		Workahead:       bufCap > 0,
		BufferCapacity:  bufCap,
		// Pin transmissions to b_view so prefixes equal elapsed
		// playback and the arithmetic below stays exact.
		ReceiveCap: 3,
		Edge:       EdgeConfig{Batch: BatchPatch, BatchWindow: window},
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, arrivals)
	e.SetObserver(obs)
	return e, obs
}

func TestPatchJoinBasics(t *testing.T) {
	e, obs := patchScenario(t, 600, 600, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 100, Video: 0}, // taps the first stream; 300 Mb patch
	})
	m := run(t, e, 4000)
	if m.Accepted != 2 || m.PatchedJoins != 1 {
		t.Fatalf("accepted=%d joins=%d", m.Accepted, m.PatchedJoins)
	}
	// The patch is the 300 Mb prefix; the shared stream carries the
	// remaining 3300 Mb for free.
	if !approx(m.AcceptedBytes, 3600+300, 1e-6) {
		t.Errorf("AcceptedBytes = %v, want 3900 (full + patch)", m.AcceptedBytes)
	}
	if !approx(m.SharedMb, 3300, 1e-6) {
		t.Errorf("SharedMb = %v, want 3300", m.SharedMb)
	}
	// The patch finishes after 100 s (300 Mb at b_view), exactly when
	// the joiner's playback reaches the tap point.
	if got := obs.finishes[2]; !approx(got, 200, 1e-6) {
		t.Errorf("patch finished at %v, want 200", got)
	}
	if m.Completions != 2 {
		t.Errorf("completions = %d", m.Completions)
	}
}

func TestPatchFreesSlotEarly(t *testing.T) {
	// 2-slot server: primary + patch fill it at t=100. The patch ends
	// at t=200, so a third (unrelated-in-time) request at t=300 fits —
	// without patching the second stream would hold its slot for 1200 s
	// and the third request would be rejected.
	arrivals := []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 100, Video: 0},
		{Arrival: 300, Video: 0},
	}
	e, _ := patchScenario(t, 600, 600, arrivals)
	m := run(t, e, 5000)
	if m.Accepted != 3 || m.Rejected != 0 {
		t.Fatalf("patching: accepted=%d rejected=%d, want 3/0", m.Accepted, m.Rejected)
	}
	// The t=300 arrival cannot tap the t=0 stream (900 Mb prefix
	// exceeds the 600 Mb client buffer) and patches are not tappable,
	// so it takes the slot the finished patch freed at t=200.
	if m.PatchedJoins != 1 {
		t.Errorf("joins = %d, want 1 (third request exceeds its buffer)", m.PatchedJoins)
	}

	// Without patching: the third arrival finds both slots held.
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{6}, ViewRate: 3}
	e2 := newTestEngine(t, cfg, cat, [][]int{{0}}, arrivals)
	m = run(t, e2, 5000)
	if m.Accepted != 2 || m.Rejected != 1 {
		t.Fatalf("no patching: accepted=%d rejected=%d, want 2/1", m.Accepted, m.Rejected)
	}
}

func TestPatchWindowBoundsJoin(t *testing.T) {
	// Window 60 s (180 Mb): an arrival 100 s in cannot tap.
	e, _ := patchScenario(t, 60, 600, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 100, Video: 0},
	})
	m := run(t, e, 4000)
	if m.PatchedJoins != 0 {
		t.Errorf("joins = %d, want 0 (outside the window)", m.PatchedJoins)
	}
	if m.Accepted != 2 {
		t.Errorf("accepted = %d (normal slot admission should cover it)", m.Accepted)
	}
}

func TestPatchBufferBoundsJoin(t *testing.T) {
	// Buffer 150 Mb < the 300 Mb prefix: no tap.
	e, _ := patchScenario(t, 600, 150, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 100, Video: 0},
	})
	m := run(t, e, 4000)
	if m.PatchedJoins != 0 {
		t.Errorf("joins = %d, want 0 (prefix exceeds client buffer)", m.PatchedJoins)
	}
}

func TestTappedPrimaryPinned(t *testing.T) {
	// A tapped primary must not receive workahead extra (its rate is
	// pinned to b_view for the multicast receivers) and must not
	// migrate.
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{12, 3},
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  1e6,
		ReceiveCap:      0,
		Edge:            EdgeConfig{Batch: BatchPatch, BatchWindow: 1200},
		Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0, 1}, {0}}, []workload.Request{
		{Arrival: 0, Video: 0},  // runs at 12 Mb/s (workahead) until tapped
		{Arrival: 30, Video: 0}, // taps it: 360 Mb prefix, well within buffer
	})
	if err := e.Start(4000); err != nil {
		t.Fatal(err)
	}
	// Exactly two events: the two arrivals (the join happens inside the
	// second). Stop there to inspect the pinned allocation.
	for i := 0; i < 2; i++ {
		if !e.Step() {
			t.Fatal("engine ran dry early")
		}
	}
	reqs := requestsInFlight(e)
	if len(reqs) != 2 {
		t.Fatalf("%d in-flight requests, want primary + patch", len(reqs))
	}
	for _, r := range reqs {
		if r.ID == 1 && r.Rate > 3+dataEps {
			t.Errorf("tapped primary rate = %v, want pinned at b_view", r.Rate)
		}
	}
	for e.Step() {
	}
	m := e.Metrics()
	if m.PatchedJoins != 1 {
		t.Fatalf("joins = %d", m.PatchedJoins)
	}
	if m.Completions != 2 || !approx(m.DeliveredBytes, m.AcceptedBytes, 1e-3) {
		t.Errorf("completions=%d delivered=%v accepted=%v", m.Completions, m.DeliveredBytes, m.AcceptedBytes)
	}
}

func TestPatchJoinPrefersSmallestPrefix(t *testing.T) {
	// Two tappable primaries at different progress: the joiner taps the
	// younger one (smaller patch).
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{12},
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  1e6,
		ReceiveCap:      3, // pin everyone to b_view for clean arithmetic
		Edge:            EdgeConfig{Batch: BatchPatch, BatchWindow: 1200},
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 200, Video: 0}, // taps stream 1: 600 Mb patch
		{Arrival: 300, Video: 0}, // patches are not tappable → taps stream 1 too: 900 Mb patch
	})
	e.SetObserver(obs)
	m := run(t, e, 5000)
	if m.PatchedJoins != 2 {
		t.Fatalf("joins = %d, want 2", m.PatchedJoins)
	}
	if got := obs.finishes[2]; !approx(got, 400, 1e-6) {
		t.Errorf("first patch finished at %v, want 400", got)
	}
	if got := obs.finishes[3]; !approx(got, 600, 1e-6) {
		t.Errorf("second patch finished at %v, want 600", got)
	}
}

func TestPatchingDisabledByDefault(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{6}, ViewRate: 3}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 100, Video: 0},
	})
	m := run(t, e, 4000)
	if m.PatchedJoins != 0 || m.SharedMb != 0 {
		t.Errorf("patching activity without Edge.Batch=%q: %+v", BatchPatch, m)
	}
}

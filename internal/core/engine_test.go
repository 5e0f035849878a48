package core

import (
	"testing"

	"semicont/internal/workload"
)

// finishObserver records completion times by request id.
type finishObserver struct {
	finishes map[int64]float64
	admits   map[int64]int // request -> server
	rejects  int
}

func newFinishObserver() *finishObserver {
	return &finishObserver{finishes: map[int64]float64{}, admits: map[int64]int{}}
}

func (o *finishObserver) OnAdmit(t float64, reqID int64, video, server int, viaMigration bool) {
	o.admits[reqID] = server
}
func (o *finishObserver) OnReject(t float64, video int)                                      { o.rejects++ }
func (o *finishObserver) OnMigrate(t float64, reqID int64, video, from, to int, rescue bool) {}
func (o *finishObserver) OnFinish(t float64, reqID int64, video, server int) {
	o.finishes[reqID] = t
}
func (o *finishObserver) OnFailure(t float64, server int, rescued, dropped, parked int) {}
func (o *finishObserver) OnRecovery(t float64, server int, cold bool)                   {}
func (o *finishObserver) OnReplicate(t float64, video, from, to int)                    {}

func TestSingleRequestContinuous(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200) // one 3600 Mb video
	cfg := Config{ServerBandwidth: []float64{100}, ViewRate: 3}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 10, Video: 0}})
	e.SetObserver(obs)
	m := run(t, e, 100)

	if m.Accepted != 1 || m.Rejected != 0 {
		t.Fatalf("accepted=%d rejected=%d", m.Accepted, m.Rejected)
	}
	// Without workahead the transmission proceeds at exactly b_view and
	// finishes at arrival + size/b_view = 10 + 1200.
	if got := obs.finishes[1]; !approx(got, 1210, 1e-6) {
		t.Errorf("finish at %v, want 1210", got)
	}
	if !approx(m.AcceptedBytes, 3600, 1e-9) {
		t.Errorf("AcceptedBytes = %v", m.AcceptedBytes)
	}
	if !approx(m.DeliveredBytes, 3600, 1e-6) {
		t.Errorf("DeliveredBytes = %v", m.DeliveredBytes)
	}
	if m.Completions != 1 {
		t.Errorf("Completions = %d", m.Completions)
	}
}

func TestSingleRequestWorkaheadUnlimited(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{100}, ViewRate: 3,
		Workahead: true, BufferCapacity: 1e9, ReceiveCap: 0,
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 0, Video: 0}})
	e.SetObserver(obs)
	run(t, e, 100)
	// Alone on a 100 Mb/s server with no caps: finish at 3600/100 = 36 s.
	if got := obs.finishes[1]; !approx(got, 36, 1e-6) {
		t.Errorf("finish at %v, want 36", got)
	}
}

func TestSingleRequestBufferLimitedWorkahead(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{100}, ViewRate: 3,
		Workahead: true, BufferCapacity: 270, ReceiveCap: 30,
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{{Arrival: 0, Video: 0}})
	e.SetObserver(obs)
	run(t, e, 100)
	// Phase 1: 30 Mb/s; buffer fills at 27 Mb/s and hits 270 at t=10
	// (sent 300). Phase 2: 3 Mb/s, buffer pinned full. Finish when
	// sent = 3600: t = 10 + 3300/3 = 1110.
	if got := obs.finishes[1]; !approx(got, 1110, 1e-6) {
		t.Errorf("finish at %v, want 1110", got)
	}
}

func TestLeastLoadedAssignment(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{100, 100}, ViewRate: 3}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0, 1}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0},
		{Arrival: 3, Video: 0},
	})
	e.SetObserver(obs)
	run(t, e, 100)
	// Ties go to the lower id, then alternate: 0, 1, 0, 1.
	want := map[int64]int{1: 0, 2: 1, 3: 0, 4: 1}
	for id, srv := range want {
		if obs.admits[id] != srv {
			t.Errorf("request %d on server %d, want %d", id, obs.admits[id], srv)
		}
	}
}

func TestRejectionWhenFull(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{6}, ViewRate: 3} // 2 slots
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0}, // no slot: rejected
	})
	m := run(t, e, 100)
	if m.Accepted != 2 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 2/1", m.Accepted, m.Rejected)
	}
	if m.Arrivals != 3 {
		t.Errorf("Arrivals = %d", m.Arrivals)
	}
}

func TestSlotFreedAfterFinishAllowsAdmission(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)                           // 3600 Mb, plays in 1200 s
	cfg := Config{ServerBandwidth: []float64{3}, ViewRate: 3} // 1 slot
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 600, Video: 0},  // mid-stream: rejected
		{Arrival: 1300, Video: 0}, // after finish at 1200: accepted
	})
	m := run(t, e, 2000)
	if m.Accepted != 2 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 2/1", m.Accepted, m.Rejected)
	}
}

func TestEarlyFinishFreesSlotSooner(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	// One slot; staging lets the first stream finish at t=36 instead of
	// 1200, so a request at t=50 is admitted. This is the entire
	// semi-continuous transmission benefit in miniature.
	cfg := Config{
		ServerBandwidth: []float64{3.5}, ViewRate: 3,
		Workahead: true, BufferCapacity: 1e9, ReceiveCap: 0,
	}
	// Capacity 3.5 → 1 slot; spare 0.5 Mb/s of workahead.
	// sent(t) = 3.5t → finish at 3600/3.5 ≈ 1028.6 < 1200.
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1100, Video: 0}, // after the early finish: accepted
	})
	m := run(t, e, 2000)
	if m.Accepted != 2 {
		t.Fatalf("accepted=%d, want 2 (early finish must free the slot)", m.Accepted)
	}

	// Without workahead the same arrival is rejected.
	cfg.Workahead = false
	e = newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1100, Video: 0},
	})
	m = run(t, e, 2000)
	if m.Accepted != 1 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 1/1 without workahead", m.Accepted, m.Rejected)
	}
}

func TestArrivalsBeyondHorizonIgnored(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{100}, ViewRate: 3}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 10, Video: 0},
		{Arrival: 99, Video: 0},
		{Arrival: 101, Video: 0}, // past the horizon
	})
	m := run(t, e, 100)
	if m.Arrivals != 2 {
		t.Errorf("Arrivals = %d, want 2 (horizon 100)", m.Arrivals)
	}
	// In-flight work still drains.
	if m.Completions != 2 {
		t.Errorf("Completions = %d, want 2", m.Completions)
	}
}

func TestEngineValidation(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	lay := manualLayout(t, cat, [][]int{{0}}, 1)
	good := Config{ServerBandwidth: []float64{100}, ViewRate: 3}

	if _, err := NewEngine(Config{ViewRate: 3}, cat, lay, &scriptSource{}); err == nil {
		t.Error("config without servers accepted")
	}
	if _, err := NewEngine(good, cat, lay, nil); err == nil {
		t.Error("nil source accepted")
	}
	two := Config{ServerBandwidth: []float64{100, 100}, ViewRate: 3}
	if _, err := NewEngine(two, cat, lay, &scriptSource{}); err == nil {
		t.Error("layout/server count mismatch accepted")
	}
	e, err := NewEngine(good, cat, lay, &scriptSource{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if err := e.ScheduleFailure(10, 5); err == nil {
		t.Error("failure on unknown server accepted")
	}
	if err := e.ScheduleFailure(-1, 0); err == nil {
		t.Error("failure at negative time accepted")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := &Metrics{AcceptedBytes: 500, Arrivals: 10, Rejected: 3}
	if got := m.Utilization(100, 10); !approx(got, 0.5, 1e-12) {
		t.Errorf("Utilization = %v", got)
	}
	if got := m.Utilization(0, 10); got != 0 {
		t.Errorf("Utilization with zero bandwidth = %v", got)
	}
	if got := m.RejectionRatio(); !approx(got, 0.3, 1e-12) {
		t.Errorf("RejectionRatio = %v", got)
	}
	if got := (&Metrics{}).RejectionRatio(); got != 0 {
		t.Errorf("empty RejectionRatio = %v", got)
	}
}

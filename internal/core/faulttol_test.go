package core

import (
	"testing"

	"semicont/internal/workload"
)

func TestWarmRecoveryRestoresService(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{6}, ViewRate: 3}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},   // dropped at the failure
		{Arrival: 60, Video: 0},  // server down: rejected
		{Arrival: 200, Video: 0}, // server back: accepted
	})
	if err := e.ScheduleFailure(50, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleRecovery(100, 0, false); err != nil {
		t.Fatal(err)
	}
	m := run(t, e, 2000)
	if m.Failures != 1 || m.Recoveries != 1 || m.ColdRecoveries != 0 {
		t.Fatalf("failures=%d recoveries=%d cold=%d", m.Failures, m.Recoveries, m.ColdRecoveries)
	}
	if m.Accepted != 2 || m.Rejected != 1 || m.DroppedStreams != 1 {
		t.Fatalf("accepted=%d rejected=%d dropped=%d, want 2/1/1", m.Accepted, m.Rejected, m.DroppedStreams)
	}
	if m.Completions != 1 {
		t.Errorf("completions = %d, want 1", m.Completions)
	}
}

func TestColdRecoveryWipesReplicas(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{ServerBandwidth: []float64{6}, ViewRate: 3}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 200, Video: 0}, // server up but wiped: no replica, rejected
	})
	if err := e.ScheduleFailure(50, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleRecovery(100, 0, true); err != nil {
		t.Fatal(err)
	}
	m := run(t, e, 2000)
	if m.Recoveries != 1 || m.ColdRecoveries != 1 {
		t.Fatalf("recoveries=%d cold=%d", m.Recoveries, m.ColdRecoveries)
	}
	if m.Accepted != 0 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 0/1 (replica lost in the wipe)", m.Accepted, m.Rejected)
	}
}

// TestColdRecoveryRebuildsViaReplication drives the issue's cold-path
// contract end to end: a cold-recovered server re-enters the replica
// set only through dynamic replication, after which it serves again.
func TestColdRecoveryRebuildsViaReplication(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200) // one 3600 Mb video on both servers
	cfg := Config{
		ServerBandwidth: []float64{6, 6},
		ViewRate:        3,
		Replication:     ReplicationConfig{Enabled: true},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0, 1}}, []workload.Request{
		{Arrival: 30, Video: 0},   // → server 1 (server 0 wiped)
		{Arrival: 31, Video: 0},   // → server 1, now full
		{Arrival: 32, Video: 0},   // rejected → replication to wiped server 0
		{Arrival: 2500, Video: 0}, // replica rebuilt: → server 0
	})
	if err := e.ScheduleFailure(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleRecovery(20, 0, true); err != nil {
		t.Fatal(err)
	}
	m := run(t, e, 3000)
	if m.ReplicationsStarted != 1 || m.ReplicationsCompleted != 1 {
		t.Fatalf("replications started=%d completed=%d, want 1/1",
			m.ReplicationsStarted, m.ReplicationsCompleted)
	}
	if m.Accepted != 3 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 3/1", m.Accepted, m.Rejected)
	}
}

func TestRetryQueueAdmitsWhenSlotFrees(t *testing.T) {
	cat := fixedCatalog(t, 1, 30) // short 90 Mb videos: slots free quickly
	cfg := Config{
		ServerBandwidth: []float64{6},
		ViewRate:        3,
		Retry:           RetryConfig{Enabled: true, Backoff: 10},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0}, // both slots taken: queued, admitted ≈ t=32
	})
	m := run(t, e, 2000)
	if m.RetriesQueued != 1 || m.RetriedAdmissions != 1 || m.Reneged != 0 {
		t.Fatalf("queued=%d retried=%d reneged=%d, want 1/1/0",
			m.RetriesQueued, m.RetriedAdmissions, m.Reneged)
	}
	if m.Accepted != 3 || m.Rejected != 0 || m.Completions != 3 {
		t.Fatalf("accepted=%d rejected=%d completions=%d", m.Accepted, m.Rejected, m.Completions)
	}
}

func TestRetryQueueReneges(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200) // long videos: slots stay occupied
	cfg := Config{
		ServerBandwidth: []float64{6},
		ViewRate:        3,
		Retry:           RetryConfig{Enabled: true, Patience: 100, Backoff: 10},
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0}, // queued; patience runs out at t=102
	})
	e.SetObserver(obs)
	m := run(t, e, 2000)
	if m.RetriesQueued != 1 || m.RetriedAdmissions != 0 || m.Reneged != 1 {
		t.Fatalf("queued=%d retried=%d reneged=%d, want 1/0/1",
			m.RetriesQueued, m.RetriedAdmissions, m.Reneged)
	}
	if m.Rejected != 0 {
		t.Fatalf("Rejected = %d, want 0 (the loss is accounted as reneging)", m.Rejected)
	}
	if obs.rejects != 1 {
		t.Errorf("observer saw %d rejects, want 1 (reneging notifies OnReject)", obs.rejects)
	}
}

func TestRetryQueueBoundOverflowRejects(t *testing.T) {
	cat := fixedCatalog(t, 1, 1200)
	cfg := Config{
		ServerBandwidth: []float64{6},
		ViewRate:        3,
		Retry:           RetryConfig{Enabled: true, MaxQueue: 1, Patience: 50, Backoff: 10},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0}, // queued (fills the bound)
		{Arrival: 3, Video: 0}, // overflow: rejected up front
	})
	m := run(t, e, 2000)
	if m.RetriesQueued != 1 || m.Rejected != 1 || m.Reneged != 1 {
		t.Fatalf("queued=%d rejected=%d reneged=%d, want 1/1/1",
			m.RetriesQueued, m.Rejected, m.Reneged)
	}
}

// parkScenario: stream A (video 0, server 0 only) builds workahead
// until server 0 fails at t=50 with no rescue target; degraded-mode
// playback parks it with 150 Mb (50 s) of buffered data. opts adjust
// the configuration before the engine is built.
func parkScenario(t *testing.T, opts ...func(*Config)) (*Engine, *finishObserver) {
	t.Helper()
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{6, 6},
		ViewRate:        3,
		BufferCapacity:  300,
		Workahead:       true,
		Degraded:        DegradedConfig{Enabled: true, RetryInterval: 5},
	}
	for _, o := range opts {
		o(&cfg)
	}
	obs := newFinishObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {1}}, []workload.Request{
		{Arrival: 0, Video: 0},   // A → server 0, parked at t=50
		{Arrival: 0.5, Video: 1}, // → server 1
		{Arrival: 1, Video: 1},   // → server 1, now full
	})
	e.SetObserver(obs)
	if err := e.ScheduleFailure(50, 0); err != nil {
		t.Fatal(err)
	}
	return e, obs
}

func TestDegradedParkGlitchesWhenBufferDries(t *testing.T) {
	e, _ := parkScenario(t)
	// No recovery: A's 150 Mb buffer drains at b_view=3 and runs dry at
	// t=100 with nowhere to reconnect.
	m := run(t, e, 2000)
	if m.DegradedParked != 1 || m.DegradedResumed != 0 || m.DegradedGlitches != 1 {
		t.Fatalf("parked=%d resumed=%d glitches=%d, want 1/0/1",
			m.DegradedParked, m.DegradedResumed, m.DegradedGlitches)
	}
	if m.DroppedStreams != 1 || m.Completions != 2 {
		t.Fatalf("dropped=%d completions=%d, want 1/2", m.DroppedStreams, m.Completions)
	}
	// A delivered exactly what it received before the failure: 50 s at
	// the full 6 Mb/s (minimum flow + workahead).
	want := 2*3600.0 + 300
	if !approx(m.DeliveredBytes, want, 1e-6) {
		t.Errorf("DeliveredBytes = %v, want %v", m.DeliveredBytes, want)
	}
}

func TestDegradedParkResumesAfterRecovery(t *testing.T) {
	e, obs := parkScenario(t)
	if err := e.ScheduleRecovery(80, 0, false); err != nil {
		t.Fatal(err)
	}
	m := run(t, e, 2000)
	if m.DegradedParked != 1 || m.DegradedResumed != 1 || m.DegradedGlitches != 0 {
		t.Fatalf("parked=%d resumed=%d glitches=%d, want 1/1/0",
			m.DegradedParked, m.DegradedResumed, m.DegradedGlitches)
	}
	if m.DroppedStreams != 0 || m.Completions != 3 {
		t.Fatalf("dropped=%d completions=%d, want 0/3", m.DroppedStreams, m.Completions)
	}
	if !approx(m.DeliveredBytes, 3*3600, 1e-6) {
		t.Errorf("DeliveredBytes = %v, want full delivery", m.DeliveredBytes)
	}
	if _, ok := obs.finishes[1]; !ok {
		t.Error("parked stream never finished after readmission")
	}
}

// TestDegradedParkBrownoutInteraction pins the reconnect seam between
// degraded-mode parking and brownouts: a parked stream's park ticks go
// through the admission selector, which must judge a browned-out
// holder by its *effective* capacity. Stream A parks when its only
// holder fails; the holder comes back dimmed before A's buffer dries.
// Whether A resumes then hinges solely on whether the dimmed slot
// count is zero or one — and a zero-slot brownout holds A parked until
// the restore (or the buffer's end, whichever comes first).
func TestDegradedParkBrownoutInteraction(t *testing.T) {
	cases := []struct {
		name      string
		frac      float64 // brownout fraction applied at t=58
		restoreAt float64 // 0 = never restored
		resumed   int64
		glitches  int64
		dropped   int64
		completed int64
	}{
		// 0.4·6 = 2.4 Mb/s < b_view: zero slots, reconnect infeasible
		// until the restore at t=90 (buffer dries at t=100).
		{"zero-slot brownout waits for restore", 0.4, 90, 1, 0, 0, 3},
		// Same brownout, no restore: A stays parked past buffer
		// exhaustion and the viewer eats the glitch.
		{"zero-slot brownout never restored", 0.4, 0, 0, 1, 1, 2},
		// 0.6·6 = 3.6 Mb/s: one dimmed slot is free and feasible, so
		// the first park tick after the brownout reconnects A.
		{"dimmed holder with a free slot resumes", 0.6, 0, 1, 0, 0, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := parkScenario(t) // fails A's holder (server 0) at t=50
			if err := e.ScheduleRecovery(57, 0, false); err != nil {
				t.Fatal(err)
			}
			if err := e.ScheduleBrownout(58, 0, tc.frac); err != nil {
				t.Fatal(err)
			}
			if tc.restoreAt > 0 {
				if err := e.ScheduleRestore(tc.restoreAt, 0); err != nil {
					t.Fatal(err)
				}
			}
			m := run(t, e, 2000)
			if m.DegradedParked != 1 || m.DegradedResumed != tc.resumed || m.DegradedGlitches != tc.glitches {
				t.Fatalf("parked=%d resumed=%d glitches=%d, want 1/%d/%d",
					m.DegradedParked, m.DegradedResumed, m.DegradedGlitches, tc.resumed, tc.glitches)
			}
			if m.DroppedStreams != tc.dropped || m.Completions != tc.completed {
				t.Fatalf("dropped=%d completions=%d, want %d/%d",
					m.DroppedStreams, m.Completions, tc.dropped, tc.completed)
			}
		})
	}
}

// obsLog is an accumulator that keeps every observation.
type obsLog []float64

func (l *obsLog) Observe(x float64) { *l = append(*l, x) }

// TestDegradedParkedViewerPauses pins a parked viewer's pause and
// resume. A parks at t=50 with 150 Mb buffered and would run dry at
// t=100; its viewer pauses at t=60 with 120 Mb left and resumes at
// t=160, so the buffer holds until t=200, past server 0's warm
// recovery at t=180, and A reconnects. Without the pause the same run
// drops A at t=100; with the pause and no recovery, A runs dry at
// t=200.
func TestDegradedParkedViewerPauses(t *testing.T) {
	cases := []struct {
		name      string
		pauses    int64   // 1: the viewer pauses at t=60 and resumes at t=160
		recoverAt float64 // 0 = never recovered
		resumed   int64
		glitches  int64
		delivered float64
		parkSec   float64 // how long A stays parked
	}{
		{"paused viewer outlasts the outage", 1, 180, 1, 0, 3 * 3600, 130},
		{"playing viewer runs dry first", 0, 180, 0, 1, 2*3600 + 300, 50},
		{"paused viewer runs dry later", 1, 0, 0, 1, 2*3600 + 300, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A pause probability this small draws no pause of its own,
			// but it turns interactivity on, so pause events find A.
			e, _ := parkScenario(t, func(c *Config) {
				c.Interactivity = InteractivityConfig{PauseProb: 1e-12, MinPause: 1, MaxPause: 1}
			})
			if tc.pauses > 0 {
				e.events.Push(60, event{kind: evPause, req: 1})
				e.events.Push(160, event{kind: evResume, req: 1})
			}
			if tc.recoverAt > 0 {
				if err := e.ScheduleRecovery(tc.recoverAt, 0, false); err != nil {
					t.Fatal(err)
				}
			}
			var park obsLog
			e.SetAccumulator(ObsPark, &park)
			m := run(t, e, 2000)
			if m.DegradedParked != 1 || m.DegradedResumed != tc.resumed || m.DegradedGlitches != tc.glitches {
				t.Fatalf("parked=%d resumed=%d glitches=%d, want 1/%d/%d",
					m.DegradedParked, m.DegradedResumed, m.DegradedGlitches, tc.resumed, tc.glitches)
			}
			if m.ViewerPauses != tc.pauses {
				t.Errorf("ViewerPauses = %d, want %d", m.ViewerPauses, tc.pauses)
			}
			if !approx(m.DeliveredBytes, tc.delivered, 1e-6) {
				t.Errorf("DeliveredBytes = %v, want %v", m.DeliveredBytes, tc.delivered)
			}
			if len(park) != 1 || !approx(park[0], tc.parkSec, 1e-9) {
				t.Errorf("park episodes %v, want one of %g s", park, tc.parkSec)
			}
		})
	}
}

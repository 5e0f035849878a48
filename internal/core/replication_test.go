package core

import (
	"testing"

	"semicont/internal/workload"
)

// replicateObserver records replica installations.
type replicateObserver struct {
	finishObserver
	replicas []struct{ video, from, to int }
}

func (o *replicateObserver) OnReplicate(t float64, video, from, to int) {
	o.replicas = append(o.replicas, struct{ video, from, to int }{video, from, to})
}

// replScenario: video 0 lives on server 0 only (7 Mb/s: two slots plus
// 1 Mb/s spare that can feed a copy); server 1 holds only video 1 and
// is otherwise idle. Two streams fill server 0; the third request for
// video 0 is rejected and triggers replication to server 1.
func replScenario(t *testing.T, enabled bool, extra []workload.Request) (*Engine, *replicateObserver) {
	t.Helper()
	cat := fixedCatalog(t, 2, 1200) // 3600 Mb each
	cfg := Config{
		ServerBandwidth: []float64{7, 7},
		ViewRate:        3,
		Replication:     ReplicationConfig{Enabled: enabled},
	}
	reqs := []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0}, // rejected; replication trigger
	}
	reqs = append(reqs, extra...)
	obs := &replicateObserver{finishObserver: *newFinishObserver()}
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {1}}, reqs)
	e.SetObserver(obs)
	return e, obs
}

func TestReplicationOnRejection(t *testing.T) {
	later := []workload.Request{
		{Arrival: 5000, Video: 0},
		{Arrival: 5001, Video: 0},
		{Arrival: 5002, Video: 0}, // needs the new replica on server 1
	}
	// Without replication the later burst loses one request again.
	e, _ := replScenario(t, false, later)
	m := run(t, e, 6000)
	if m.Accepted != 4 || m.Rejected != 2 || m.ReplicationsStarted != 0 {
		t.Fatalf("baseline: accepted=%d rejected=%d repl=%d, want 4/2/0",
			m.Accepted, m.Rejected, m.ReplicationsStarted)
	}

	// With replication the rejection at t=2 creates a second replica
	// (copy finishes long before t=5000), so the burst fits.
	e, obs := replScenario(t, true, later)
	m = run(t, e, 6000)
	if m.ReplicationsStarted != 1 || m.ReplicationsCompleted != 1 {
		t.Fatalf("replications started=%d completed=%d, want 1/1",
			m.ReplicationsStarted, m.ReplicationsCompleted)
	}
	if !approx(m.ReplicatedMb, 3600, 1e-6) {
		t.Errorf("ReplicatedMb = %v, want 3600", m.ReplicatedMb)
	}
	if m.Accepted != 5 || m.Rejected != 1 {
		t.Fatalf("with replication: accepted=%d rejected=%d, want 5/1", m.Accepted, m.Rejected)
	}
	if len(obs.replicas) != 1 || obs.replicas[0].video != 0 ||
		obs.replicas[0].from != 0 || obs.replicas[0].to != 1 {
		t.Errorf("replica events = %+v", obs.replicas)
	}
	// One of the burst requests must land on the new replica holder.
	onNew := 0
	for id, srv := range obs.admits {
		if id >= 4 && srv == 1 {
			onNew++
		}
	}
	if onNew == 0 {
		t.Error("no burst request served from the dynamic replica")
	}
}

func TestReplicationDeduplicates(t *testing.T) {
	// Two rejections for the same video while a copy is in flight must
	// start only one job.
	e, _ := replScenario(t, true, []workload.Request{{Arrival: 3, Video: 0}})
	m := run(t, e, 6000)
	if m.ReplicationsStarted != 1 {
		t.Errorf("ReplicationsStarted = %d, want 1 (dedup)", m.ReplicationsStarted)
	}
	// The second rejection found the copy in flight: a deferral, not a
	// silently swallowed retry.
	if m.ReplicationsDeferred != 1 {
		t.Errorf("ReplicationsDeferred = %d, want 1", m.ReplicationsDeferred)
	}
}

func TestReplicationDeferredWithoutSource(t *testing.T) {
	// Server 0 is video 0's only holder; failing it leaves rejections
	// for video 0 with no live source to copy from.
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{7, 7},
		ViewRate:        3,
		Replication:     ReplicationConfig{Enabled: true},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {1}}, []workload.Request{
		{Arrival: 200, Video: 0}, // holder dead: rejected, and no source to copy from
	})
	if err := e.ScheduleFailure(100, 0); err != nil {
		t.Fatal(err)
	}
	m := run(t, e, 6000)
	if m.Rejected != 1 || m.ReplicationsStarted != 0 {
		t.Fatalf("rejected=%d started=%d, want 1/0", m.Rejected, m.ReplicationsStarted)
	}
	if m.ReplicationsDeferred != 1 {
		t.Errorf("ReplicationsDeferred = %d, want 1 (no live source)", m.ReplicationsDeferred)
	}
}

func TestReplicationRespectsStorage(t *testing.T) {
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{7, 7},
		ViewRate:        3,
		Replication:     ReplicationConfig{Enabled: true},
		// Server 1 already holds video 1 (3600 Mb) and has no room for
		// a second object.
		ServerStorage: []float64{7200, 3600},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {1}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0},
	})
	m := run(t, e, 6000)
	if m.ReplicationsStarted != 0 {
		t.Errorf("ReplicationsStarted = %d, want 0 (no storage room)", m.ReplicationsStarted)
	}
	if m.ReplicationsDeferred != 1 {
		t.Errorf("ReplicationsDeferred = %d, want 1 (no target with room)", m.ReplicationsDeferred)
	}
}

func TestReplicationAbortedBySourceFailure(t *testing.T) {
	e, _ := replScenario(t, true, nil)
	// The copy runs at 1 Mb/s while both streams are live; kill the
	// source at t=100, long before completion.
	if err := e.ScheduleFailure(100, 0); err != nil {
		t.Fatal(err)
	}
	m := run(t, e, 6000)
	if m.ReplicationsStarted != 1 || m.ReplicationsAborted != 1 || m.ReplicationsCompleted != 0 {
		t.Errorf("started=%d aborted=%d completed=%d, want 1/1/0",
			m.ReplicationsStarted, m.ReplicationsAborted, m.ReplicationsCompleted)
	}
}

func TestReplicationAbortedByTargetFailure(t *testing.T) {
	e, _ := replScenario(t, true, nil)
	if err := e.ScheduleFailure(100, 1); err != nil { // target dies
		t.Fatal(err)
	}
	m := run(t, e, 6000)
	if m.ReplicationsAborted != 1 || m.ReplicationsCompleted != 0 {
		t.Errorf("aborted=%d completed=%d, want 1/0", m.ReplicationsAborted, m.ReplicationsCompleted)
	}
}

func TestCopyConsumesOnlySpareBandwidth(t *testing.T) {
	// While both streams are live the copy gets exactly the 1 Mb/s of
	// spare (invariants verify Σ rates ≤ 7); after they finish it ramps
	// to the 6 Mb/s default cap. Completion time pins the trajectory:
	// 1198 Mb by t≈1201, the rest at 6 Mb/s → ≈1601.3. The replica
	// install is observable through the metrics after the run.
	e, obs := replScenario(t, true, nil)
	m := run(t, e, 6000)
	if m.ReplicationsCompleted != 1 {
		t.Fatalf("completed=%d", m.ReplicationsCompleted)
	}
	_ = obs
	// The harness's auditor has already asserted the bandwidth budget
	// at every event; conservation of request bytes must still hold
	// alongside the copy traffic.
	if !approx(m.DeliveredBytes, m.AcceptedBytes, 1e-3) {
		t.Errorf("delivered %v vs accepted %v", m.DeliveredBytes, m.AcceptedBytes)
	}
}

func TestMigrationSeesDynamicReplicas(t *testing.T) {
	// After video 0 is replicated onto server 1, DRM may migrate a
	// video-0 stream there: the planner must take its targets from
	// the overlay (e.holders), not the static layout.
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{7, 7},
		ViewRate:        3,
		Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1},
		Replication:     ReplicationConfig{Enabled: true},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {1}}, []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1, Video: 0},
		{Arrival: 2, Video: 0}, // rejected (no DRM target yet) → copy starts
		// After the copy completes (~t=1601) and both early streams are
		// done, fill server 0 again and force DRM to use the replica.
		{Arrival: 5000, Video: 0},
		{Arrival: 5001, Video: 0},
		{Arrival: 5002, Video: 1}, // server 1's own video
		{Arrival: 5003, Video: 1},
		{Arrival: 5004, Video: 0}, // server 0 full; migrate a v0 stream to server 1? server 1 full too (2 slots)
	})
	m := run(t, e, 9000)
	// At t=5004: server 0 carries two v0 streams, server 1 two v1
	// streams; all full. DRM chain: no target has a slot, so the
	// arrival is rejected — but the overlay made server 1 a legal
	// candidate, which planDirect explored without crashing. The real
	// assertion: the earlier burst behaves exactly as in
	// TestReplicationOnRejection and the engine stays consistent.
	if m.ReplicationsCompleted != 1 {
		t.Errorf("completed=%d", m.ReplicationsCompleted)
	}
	if m.Accepted != 6 || m.Rejected != 2 {
		t.Errorf("accepted=%d rejected=%d, want 6/2", m.Accepted, m.Rejected)
	}
}

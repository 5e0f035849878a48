package core

import (
	"testing"

	"semicont/internal/workload"
)

// migrateObserver records migrations.
type migrateObserver struct {
	finishObserver
	moves []struct {
		req      int64
		from, to int
		rescue   bool
	}
}

func newMigrateObserver() *migrateObserver {
	return &migrateObserver{finishObserver: *newFinishObserver()}
}

func (o *migrateObserver) OnMigrate(t float64, reqID int64, video, from, to int, rescue bool) {
	o.moves = append(o.moves, struct {
		req      int64
		from, to int
		rescue   bool
	}{reqID, from, to, rescue})
}

// drmLayout is the canonical DRM situation: video 0 lives only on
// server 0; video 1 is replicated on both servers. One slot per server.
func drmScenario(t *testing.T, mig MigrationConfig) (*Engine, *migrateObserver) {
	t.Helper()
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{3, 3}, // one slot each
		ViewRate:        3,
		Migration:       mig,
	}
	obs := newMigrateObserver()
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {0, 1}}, []workload.Request{
		{Arrival: 0, Video: 1},  // lands on server 0 (tie → lower id)
		{Arrival: 10, Video: 0}, // only holder (0) is full → needs DRM
	})
	e.SetObserver(obs)
	return e, obs
}

func TestDRMAdmitsViaMigration(t *testing.T) {
	e, obs := drmScenario(t, MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1})
	m := run(t, e, 100)
	if m.Accepted != 2 || m.Rejected != 0 {
		t.Fatalf("accepted=%d rejected=%d, want 2/0", m.Accepted, m.Rejected)
	}
	if m.Migrations != 1 || m.AdmissionsViaDRM != 1 {
		t.Fatalf("migrations=%d viaDRM=%d, want 1/1", m.Migrations, m.AdmissionsViaDRM)
	}
	if len(obs.moves) != 1 {
		t.Fatalf("observer saw %d moves", len(obs.moves))
	}
	mv := obs.moves[0]
	if mv.req != 1 || mv.from != 0 || mv.to != 1 || mv.rescue {
		t.Errorf("move = %+v, want request 1 from 0 to 1", mv)
	}
	if m.ChainLengthTotal != 1 || m.MaxChainUsed != 1 {
		t.Errorf("chain accounting: total=%d max=%d", m.ChainLengthTotal, m.MaxChainUsed)
	}
	// Both streams must still complete in full.
	if m.Completions != 2 || !approx(m.DeliveredBytes, 7200, 1e-6) {
		t.Errorf("completions=%d delivered=%v", m.Completions, m.DeliveredBytes)
	}
}

func TestDRMDisabledRejects(t *testing.T) {
	e, _ := drmScenario(t, MigrationConfig{})
	m := run(t, e, 100)
	if m.Accepted != 1 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 1/1 without DRM", m.Accepted, m.Rejected)
	}
	if m.Migrations != 0 {
		t.Errorf("migrations = %d", m.Migrations)
	}
}

func TestDRMZeroHopsBudget(t *testing.T) {
	// Migration enabled but no request may ever move: equivalent to off.
	e, _ := drmScenario(t, MigrationConfig{Enabled: true, MaxHops: 0, MaxChain: 1})
	m := run(t, e, 100)
	if m.Accepted != 1 || m.Rejected != 1 || m.Migrations != 0 {
		t.Fatalf("accepted=%d rejected=%d migr=%d, want 1/1/0", m.Accepted, m.Rejected, m.Migrations)
	}
}

func TestDRMHopsBudgetExhausted(t *testing.T) {
	// Three servers, one slot each. Video 1 on {0,1,2}; videos 0 and 2
	// pinned to single servers. The video-1 stream is migrated once
	// (0→1); with MaxHops=1 it cannot move again, so a later arrival
	// for video 2 (only on server 1) is rejected. With MaxHops=2 it is
	// admitted via a second migration (1→2).
	build := func(maxHops int) *Engine {
		cat := fixedCatalog(t, 3, 1200)
		cfg := Config{
			ServerBandwidth: []float64{3, 3, 3},
			ViewRate:        3,
			Migration:       MigrationConfig{Enabled: true, MaxHops: maxHops, MaxChain: 1},
		}
		return newTestEngine(t, cfg, cat, [][]int{{0}, {0, 1, 2}, {1}}, []workload.Request{
			{Arrival: 0, Video: 1},  // → server 0
			{Arrival: 10, Video: 0}, // forces hop 1: video-1 stream 0→1 or 0→2
			{Arrival: 20, Video: 2}, // server 1 must be freed: needs hop 2
		})
	}
	m := run(t, build(1), 100)
	if m.Accepted != 2 || m.Rejected != 1 {
		t.Fatalf("maxHops=1: accepted=%d rejected=%d, want 2/1", m.Accepted, m.Rejected)
	}
	m = run(t, build(2), 100)
	if m.Accepted != 3 || m.Rejected != 0 {
		t.Fatalf("maxHops=2: accepted=%d rejected=%d, want 3/0", m.Accepted, m.Rejected)
	}
	if m.Migrations != 2 {
		t.Errorf("maxHops=2: migrations=%d, want 2", m.Migrations)
	}
}

func TestDRMUnlimitedHops(t *testing.T) {
	cat := fixedCatalog(t, 3, 1200)
	cfg := Config{
		ServerBandwidth: []float64{3, 3, 3},
		ViewRate:        3,
		Migration:       MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 1},
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {0, 1, 2}, {1}}, []workload.Request{
		{Arrival: 0, Video: 1},
		{Arrival: 10, Video: 0},
		{Arrival: 20, Video: 2},
	})
	m := run(t, e, 100)
	if m.Accepted != 3 {
		t.Fatalf("accepted=%d, want 3 with unlimited hops", m.Accepted)
	}
}

func TestDRMChainLengthTwo(t *testing.T) {
	// Server A holds {X, Y}, B holds {Y, Z}, C holds {Z}; one slot each.
	// Streams: Y on A, Z on B. An arrival for X (only on A) needs a
	// chain: move Z from B to C, then Y from A to B.
	build := func(maxChain int) *Engine {
		cat := fixedCatalog(t, 3, 1200) // videos: 0=X, 1=Y, 2=Z
		cfg := Config{
			ServerBandwidth: []float64{3, 3, 3},
			ViewRate:        3,
			Migration:       MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: maxChain},
		}
		return newTestEngine(t, cfg, cat, [][]int{{0}, {0, 1}, {1, 2}}, []workload.Request{
			{Arrival: 0, Video: 1},  // Y → server 0 (holders {0,1}, tie → 0)
			{Arrival: 5, Video: 2},  // Z → server 1 (holders {1,2}, tie → 1)
			{Arrival: 10, Video: 0}, // X: only holder 0 is full
		})
	}
	m := run(t, build(1), 100)
	if m.Accepted != 2 || m.Rejected != 1 {
		t.Fatalf("chain=1: accepted=%d rejected=%d, want 2/1", m.Accepted, m.Rejected)
	}
	m = run(t, build(2), 100)
	if m.Accepted != 3 || m.Rejected != 0 {
		t.Fatalf("chain=2: accepted=%d rejected=%d, want 3/0", m.Accepted, m.Rejected)
	}
	if m.Migrations != 2 || m.MaxChainUsed != 2 || m.ChainLengthTotal != 2 {
		t.Errorf("chain accounting: migr=%d max=%d total=%d", m.Migrations, m.MaxChainUsed, m.ChainLengthTotal)
	}
}

func TestMigratedStreamCompletesInFull(t *testing.T) {
	e, obs := drmScenario(t, MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1})
	m := run(t, e, 100)
	// The migrated stream (id 1) must finish at its original deadline:
	// it keeps receiving b_view across the switch.
	if got := obs.finishes[1]; !approx(got, 1200, 1e-6) {
		t.Errorf("migrated stream finished at %v, want 1200", got)
	}
	if m.Completions != 2 {
		t.Errorf("completions = %d", m.Completions)
	}
}

func TestSwitchDelayRequiresBuffer(t *testing.T) {
	// Without staging the client has nothing buffered, so a non-zero
	// switch delay vetoes the migration and the arrival is rejected.
	e, _ := drmScenario(t, MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1, SwitchDelay: 5})
	m := run(t, e, 100)
	if m.Accepted != 1 || m.Rejected != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 1/1 (no buffer to mask the switch)", m.Accepted, m.Rejected)
	}
	if m.MigrationsRefusedByBuffer == 0 {
		t.Error("veto not recorded in MigrationsRefusedByBuffer")
	}
}

func TestSwitchDelayWithBufferMigrates(t *testing.T) {
	// Server 0 (7 Mb/s, 2 slots, 1 Mb/s of workahead spare) fills with
	// two video-1 streams; server 1 (9 Mb/s, 3 slots) carries one
	// video-2 stream. By t=60 the first video-1 stream has buffered
	// ≈62 Mb (4 Mb in its solo second, then 1 Mb/s of EFTF spare), so a
	// 5 s switch blackout (needs 15 Mb) is coverable but a 30 s one
	// (needs 90 Mb) is not.
	build := func(delay float64) (*Engine, *migrateObserver) {
		cat := fixedCatalog(t, 3, 1200)
		cfg := Config{
			ServerBandwidth: []float64{7, 9},
			ViewRate:        3,
			Workahead:       true,
			BufferCapacity:  600,
			ReceiveCap:      30,
			Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1, SwitchDelay: delay},
		}
		obs := newMigrateObserver()
		e := newTestEngine(t, cfg, cat, [][]int{{0}, {0, 1}, {1}}, []workload.Request{
			{Arrival: 0, Video: 2},  // → server 1
			{Arrival: 1, Video: 1},  // → server 0 (load 0 < 1)
			{Arrival: 2, Video: 1},  // → server 0 (tie → lower id); now full
			{Arrival: 60, Video: 0}, // only holder (0) full → DRM
		})
		e.SetObserver(obs)
		return e, obs
	}

	e, obs := build(5)
	m := run(t, e, 3000)
	if m.Accepted != 4 || m.Rejected != 0 {
		t.Fatalf("delay=5: accepted=%d rejected=%d, want 4/0", m.Accepted, m.Rejected)
	}
	if m.Migrations != 1 || len(obs.moves) != 1 || obs.moves[0].to != 1 {
		t.Fatalf("delay=5: migrations=%d moves=%+v", m.Migrations, obs.moves)
	}
	// Every stream still completes in full despite the 5 s blackout —
	// the buffer absorbs it (this is the paper's jitter-masking point).
	if m.Completions != 4 {
		t.Errorf("delay=5: completions=%d, want 4", m.Completions)
	}

	e, _ = build(30)
	m = run(t, e, 3000)
	if m.Accepted != 3 || m.Rejected != 1 {
		t.Fatalf("delay=30: accepted=%d rejected=%d, want 3/1 (buffer too thin)", m.Accepted, m.Rejected)
	}
	if m.MigrationsRefusedByBuffer == 0 {
		t.Error("delay=30: veto not recorded")
	}
}

func TestMigrationHopsVisibleInSnapshot(t *testing.T) {
	e, _ := drmScenario(t, MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1})
	if err := e.Start(100); err != nil {
		t.Fatal(err)
	}
	// Process both arrivals (second triggers the migration).
	for e.Now() < 11 && e.Step() {
	}
	reqs := requestsInFlight(e)
	if len(reqs) != 2 {
		t.Fatalf("%d in-flight requests", len(reqs))
	}
	var hopped bool
	for _, r := range reqs {
		if r.ID == 1 && r.Hops == 1 && r.Server == 1 {
			hopped = true
		}
	}
	if !hopped {
		t.Errorf("migrated request missing hop accounting: %+v", reqs)
	}
}

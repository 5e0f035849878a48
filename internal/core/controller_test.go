package core

import (
	"testing"

	"semicont/internal/workload"
)

func TestControllerRegistryNames(t *testing.T) {
	sels := SelectorNames()
	for _, want := range []string{SelectorFirstFit, SelectorLeastLoaded, SelectorMostHeadroom, SelectorRandomFeasible} {
		if !HasSelector(want) {
			t.Errorf("selector %q missing", want)
		}
	}
	for i := 1; i < len(sels); i++ {
		if sels[i-1] >= sels[i] {
			t.Errorf("SelectorNames not sorted: %v", sels)
		}
	}
	plns := PlannerNames()
	for _, want := range []string{PlannerChainDFS, PlannerDirectOnly} {
		if !HasPlanner(want) {
			t.Errorf("planner %q missing", want)
		}
	}
	for i := 1; i < len(plns); i++ {
		if plns[i-1] >= plns[i] {
			t.Errorf("PlannerNames not sorted: %v", plns)
		}
	}
	if HasSelector("nonsense") || HasPlanner("nonsense") {
		t.Error("unknown names reported as present")
	}
}

func TestControllerConfigValidation(t *testing.T) {
	base := Config{ServerBandwidth: []float64{3}, ViewRate: 3}
	if got := base.SelectorName(); got != SelectorLeastLoaded {
		t.Errorf("default selector = %q", got)
	}

	c := base
	c.Selector = "nonsense"
	if err := c.Validate(); err == nil {
		t.Error("unknown selector accepted")
	}
	c = base
	c.Migration = MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1}
	c.Planner = "nonsense"
	if err := c.Validate(); err == nil {
		t.Error("unknown planner accepted")
	}
	// A planner is only consulted when DRM runs: naming one without
	// migration is a contradiction, not a silent no-op.
	c = base
	c.Planner = PlannerDirectOnly
	if err := c.Validate(); err == nil {
		t.Error("planner without migration accepted")
	}
	c = base
	c.Selector = SelectorRandomFeasible
	c.Migration = MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1}
	c.Planner = PlannerDirectOnly
	if err := c.Validate(); err != nil {
		t.Errorf("valid controller config rejected: %v", err)
	}
}

// TestSelectorChoice pins each deterministic selector's pick on a
// two-server cluster where the policies genuinely disagree: video 0 is
// replicated on both servers, video 1 only on server 0, and one video-1
// stream pre-loads server 0 before the probe arrival for video 0.
func TestSelectorChoice(t *testing.T) {
	cases := []struct {
		selector   string
		bandwidth  []float64
		preload    bool // send the video-1 stream to server 0 first
		wantServer int
	}{
		// Server 0 has load 1, server 1 load 0: least-loaded balances.
		{SelectorLeastLoaded, []float64{6, 6}, true, 1},
		// First-fit ignores load and takes the first feasible holder.
		{SelectorFirstFit, []float64{6, 6}, true, 0},
		// Equal loads, unequal capacity: most-headroom finds the bigger
		// server while least-loaded would tie-break to server 0.
		{SelectorMostHeadroom, []float64{6, 9}, false, 1},
		{SelectorLeastLoaded, []float64{6, 9}, false, 0},
		// Headroom accounts committed streams, not just capacity: 9 Mb/s
		// minus two streams leaves less room than an idle 6 Mb/s server.
		{SelectorMostHeadroom, []float64{6, 9}, true, 1},
	}
	for _, tc := range cases {
		cfg := Config{
			ServerBandwidth: tc.bandwidth,
			ViewRate:        3,
			Selector:        tc.selector,
		}
		reqs := []workload.Request{{Arrival: 10, Video: 0}}
		if tc.preload {
			reqs = append([]workload.Request{{Arrival: 0, Video: 1}}, reqs...)
		}
		obs := newFinishObserver()
		e := newTestEngine(t, cfg, fixedCatalog(t, 2, 1200), [][]int{{0, 1}, {0}}, reqs)
		e.SetObserver(obs)
		run(t, e, 100)
		probe := int64(len(reqs)) // ids are 1-based in arrival order
		if got := obs.admits[probe]; got != tc.wantServer {
			t.Errorf("%s (bw=%v preload=%t): admitted on server %d, want %d",
				tc.selector, tc.bandwidth, tc.preload, got, tc.wantServer)
		}
	}
}

// TestRandomFeasibleSeeded pins the random selector's contract: the
// choice stream is a pure function of Config.SelectorSeed, and every
// pick is a feasible replica holder (newTestEngine's auditor fails the
// run otherwise: its admission-feasible rule).
func TestRandomFeasibleSeeded(t *testing.T) {
	build := func(seed uint64) *finishObserver {
		cfg := Config{
			ServerBandwidth: []float64{9, 9, 9},
			ViewRate:        3,
			Selector:        SelectorRandomFeasible,
			SelectorSeed:    seed,
		}
		reqs := make([]workload.Request, 8)
		for i := range reqs {
			reqs[i] = workload.Request{Arrival: float64(i), Video: i % 2}
		}
		obs := newFinishObserver()
		e := newTestEngine(t, cfg, fixedCatalog(t, 2, 1200),
			[][]int{{0, 1, 2}, {0, 1, 2}}, reqs)
		e.SetObserver(obs)
		run(t, e, 30)
		return obs
	}
	a, b := build(42), build(42)
	if len(a.admits) != 8 {
		t.Fatalf("admitted %d of 8", len(a.admits))
	}
	for id, srv := range a.admits {
		if b.admits[id] != srv {
			t.Fatalf("same seed diverged: request %d on %d vs %d", id, srv, b.admits[id])
		}
	}
	// Different seeds should explore a different assignment eventually;
	// with 8 placements over 3 servers a collision across all of them is
	// astronomically unlikely for a healthy generator, but don't hard-fail
	// determinism on it — only flag total equality.
	c := build(43)
	same := true
	for id, srv := range a.admits {
		if c.admits[id] != srv {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical assignments — seed not wired through")
	}
}

// TestPlannerDepthSemantics drives the canonical chain-of-two layout
// (server 0 holds {X,Y}, 1 holds {Y,Z}, 2 holds {Z}, one slot each;
// admitting X requires moving Z off server 1, then Y onto it) through
// both planners and the depth/hops knobs, table-driven.
func TestPlannerDepthSemantics(t *testing.T) {
	cases := []struct {
		name       string
		mig        MigrationConfig
		planner    string
		accepted   int64
		rejected   int64
		migrations int64
		maxChain   int
	}{
		{"chain-dfs depth 1 cannot chain", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 1}, PlannerChainDFS, 2, 1, 0, 0},
		{"chain-dfs depth 2 frees via chain", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 2}, PlannerChainDFS, 3, 0, 2, 2},
		{"chain-dfs deeper budget unused", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 5}, PlannerChainDFS, 3, 0, 2, 2},
		{"zero hops pins every stream", MigrationConfig{Enabled: true, MaxHops: 0, MaxChain: 5}, PlannerChainDFS, 2, 1, 0, 0},
		{"direct-only never chains", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 5}, PlannerDirectOnly, 2, 1, 0, 0},
	}
	for _, tc := range cases {
		cfg := Config{
			ServerBandwidth: []float64{3, 3, 3},
			ViewRate:        3,
			Migration:       tc.mig,
			Planner:         tc.planner,
		}
		e := newTestEngine(t, cfg, fixedCatalog(t, 3, 1200),
			[][]int{{0}, {0, 1}, {1, 2}}, []workload.Request{
				{Arrival: 0, Video: 1},  // Y → server 0
				{Arrival: 5, Video: 2},  // Z → server 1
				{Arrival: 10, Video: 0}, // X: only holder 0 is full
			})
		m := run(t, e, 100)
		if m.Accepted != tc.accepted || m.Rejected != tc.rejected ||
			m.Migrations != tc.migrations || m.MaxChainUsed != tc.maxChain {
			t.Errorf("%s: accepted=%d rejected=%d migr=%d maxChain=%d, want %d/%d/%d/%d",
				tc.name, m.Accepted, m.Rejected, m.Migrations, m.MaxChainUsed,
				tc.accepted, tc.rejected, tc.migrations, tc.maxChain)
		}
	}
}

// TestPlannerDirectOnlySingleMove checks direct-only still plans the
// single moves it exists for: the canonical DRM scenario needs exactly
// one migration, which both planners find.
func TestPlannerDirectOnlySingleMove(t *testing.T) {
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{3, 3},
		ViewRate:        3,
		Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 3},
		Planner:         PlannerDirectOnly,
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}, {0, 1}}, []workload.Request{
		{Arrival: 0, Video: 1},
		{Arrival: 10, Video: 0},
	})
	m := run(t, e, 100)
	if m.Accepted != 2 || m.Migrations != 1 || m.MaxChainUsed != 1 {
		t.Fatalf("accepted=%d migr=%d maxChain=%d, want 2/1/1", m.Accepted, m.Migrations, m.MaxChainUsed)
	}
}

// TestPlanChainVisitedBitmap: two one-slot servers, both full, every
// video replicated on both — any move's target is the other (visited)
// server, so the DFS must conclude no plan exists instead of cycling
// 0→1→0. A deep MaxChain makes an unguarded search blow the budget in
// loops; the bitmap makes it terminate immediately with a rejection.
func TestPlanChainVisitedBitmap(t *testing.T) {
	cfg := Config{
		ServerBandwidth: []float64{3, 3},
		ViewRate:        3,
		Migration:       MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 8},
	}
	e := newTestEngine(t, cfg, fixedCatalog(t, 2, 1200),
		[][]int{{0, 1}, {0, 1}}, []workload.Request{
			{Arrival: 0, Video: 0},  // → server 0
			{Arrival: 5, Video: 1},  // → server 1
			{Arrival: 10, Video: 0}, // cluster full: no plan can exist
		})
	m := run(t, e, 100)
	if m.Accepted != 2 || m.Rejected != 1 || m.Migrations != 0 {
		t.Fatalf("accepted=%d rejected=%d migr=%d, want 2/1/0", m.Accepted, m.Rejected, m.Migrations)
	}
}

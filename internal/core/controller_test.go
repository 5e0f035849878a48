package core

import (
	"slices"
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
	if HasSelector("nonsense") {
		t.Error("unknown name reported as present")
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
	c.Selector = SelectorRandomFeasible
	c.Migration = MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1}
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

// TestClassSelectorStreams pins the per-instance selector streams: two
// traffic classes naming random-feasible draw different sequences, each
// distinct from the engine default's, a class override is the selector
// the class uses, a class without one shares the default, and the
// default's first picks are pinned so its stream stays where it was.
func TestClassSelectorStreams(t *testing.T) {
	cfg := Config{
		ServerBandwidth: []float64{9, 9, 9, 9, 9, 9, 9, 9},
		ViewRate:        3,
		Selector:        SelectorRandomFeasible,
		SelectorSeed:    42,
		Classes: []TrafficClass{
			{Name: "a", Share: 1, Selector: SelectorRandomFeasible},
			{Name: "b", Share: 1, Selector: SelectorRandomFeasible},
			{Name: "c", Share: 1, Selector: SelectorFirstFit},
			{Name: "d", Share: 1},
		},
	}
	e := newTestEngine(t, cfg, fixedCatalog(t, 1, 1200), [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}, nil)
	picks := func(class int32) []int32 {
		sel := e.classSelector(class)
		out := make([]int32, 20)
		for i := range out {
			out[i] = sel.Select(e, 0, 0).id
		}
		return out
	}
	def, a, b, c := picks(-1), picks(0), picks(1), picks(2)
	if want := []int32{3, 0, 6, 7, 2, 6, 2, 3, 6, 3, 5, 2, 2, 7, 6, 5, 2, 0, 7, 0}; !slices.Equal(def, want) {
		t.Errorf("default selector picks = %v, want %v", def, want)
	}
	if slices.Equal(a, b) || slices.Equal(a, def) || slices.Equal(b, def) {
		t.Errorf("random-feasible instances share a stream: default %v, class a %v, class b %v", def, a, b)
	}
	if want := make([]int32, 20); !slices.Equal(c, want) {
		t.Errorf("first-fit class picks = %v, want server 0 every time", c)
	}
	if e.classSelector(3) != e.selector() {
		t.Error("class without an override does not use the engine default")
	}
}

// TestPlannerDepthSemantics drives the canonical chain-of-two layout
// (server 0 holds {X,Y}, 1 holds {Y,Z}, 2 holds {Z}, one slot each;
// admitting X requires moving Z off server 1, then Y onto it) through
// the depth/hops knobs, table-driven.
func TestPlannerDepthSemantics(t *testing.T) {
	cases := []struct {
		name       string
		mig        MigrationConfig
		accepted   int64
		rejected   int64
		migrations int64
		maxChain   int
	}{
		{"depth 1 cannot chain", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 1}, 2, 1, 0, 0},
		{"depth 2 frees via chain", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 2}, 3, 0, 2, 2},
		{"deeper budget unused", MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 5}, 3, 0, 2, 2},
		{"zero hops pins every stream", MigrationConfig{Enabled: true, MaxHops: 0, MaxChain: 5}, 2, 1, 0, 0},
	}
	for _, tc := range cases {
		cfg := Config{
			ServerBandwidth: []float64{3, 3, 3},
			ViewRate:        3,
			Migration:       tc.mig,
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

// TestPlannerDirectOnlySingleMove checks that under a chain budget of 3
// the planner still makes only a direct move where one suffices:
// iterative deepening tries depth 1 first, and the canonical DRM
// scenario needs exactly one migration.
func TestPlannerDirectOnlySingleMove(t *testing.T) {
	cat := fixedCatalog(t, 2, 1200)
	cfg := Config{
		ServerBandwidth: []float64{3, 3},
		ViewRate:        3,
		Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 3},
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

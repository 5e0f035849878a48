package experiments

import (
	"testing"

	"semicont"
	"semicont/internal/stats"
)

func TestEdgeSweepTiny(t *testing.T) {
	out, err := EdgeSweep(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 {
		t.Fatalf("edge-sweep has %d figures, want egress + denial", len(out.Figures))
	}
	wantSeries := len(edgeThetas) * len(edgeWindows)
	for _, fig := range out.Figures {
		if len(fig.Series) != wantSeries {
			t.Fatalf("%s has %d series, want one per theta×window (%d)", fig.ID, len(fig.Series), wantSeries)
		}
		for _, s := range fig.Series {
			if len(s.Points) != len(edgeCacheMbs) {
				t.Errorf("%s/%s has %d points, want %d", fig.ID, s.Name, len(s.Points), len(edgeCacheMbs))
			}
		}
	}
	// Baseline egress must be positive and the largest cache must not
	// increase it on any series — the monotone direction holds even at
	// tiny scale.
	for _, s := range out.Figures[0].Series {
		first, last := s.Points[0].Mean, s.Points[len(s.Points)-1].Mean
		if first <= 0 {
			t.Errorf("%s: baseline egress %g", s.Name, first)
		}
		if last > first {
			t.Errorf("%s: egress grew with the cache (%g -> %g)", s.Name, first, last)
		}
	}
}

// TestEdgeSweepEgressReduction pins the experiment's headline claim: at
// fixed cluster capacity and θ = 0.271, fully caching 900-second
// prefixes cuts cluster egress at least 2× against the no-edge
// baseline, and the denial rate does not rise. Scaled down from the
// registry run but long enough for the effect to dominate noise.
func TestEdgeSweepEgressReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour edge sweep skipped in -short mode")
	}
	out, err := EdgeSweep(semicont.SmallSystem(), Options{HorizonHours: 8, Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	find := func(fig Figure, name string) stats.Series {
		for _, s := range fig.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("%s: no series %q", fig.ID, name)
		panic("unreachable")
	}
	name := "theta=0.271 unicast"
	eg := find(out.Figures[0], name)
	baseline := eg.Points[0].Mean
	largest := eg.Points[len(eg.Points)-1].Mean
	if largest <= 0 || baseline < 2*largest {
		t.Errorf("egress reduction %.2fx below 2x (baseline %g, largest cache %g)",
			baseline/largest, baseline, largest)
	}
	dn := find(out.Figures[1], name)
	if edge, noedge := dn.Points[len(dn.Points)-1].Mean, dn.Points[0].Mean; edge > noedge+1e-3 {
		t.Errorf("denial rose with the edge tier (%g -> %g)", noedge, edge)
	}
	// Batching must not exceed unicast egress at the same cache point —
	// joins only remove suffix streams.
	bt := find(out.Figures[0], "theta=0.271 batch=300s")
	if bt.Points[len(bt.Points)-1].Mean > largest+1e-6 {
		t.Errorf("batched egress %g above unicast %g at the largest cache",
			bt.Points[len(bt.Points)-1].Mean, largest)
	}
}

// TestEdgeSweepSkipsArrivalFreeTrials runs the sweep at a horizon of a
// few seconds, where the small system's ≈0.14 arrivals/s leave some
// trials without a single arrival. Such a trial has no denial rate: it
// must add nothing to its point rather than count as denial 0, as it
// adds nothing to every other denial figure.
func TestEdgeSweepSkipsArrivalFreeTrials(t *testing.T) {
	const trials = 4
	out, err := EdgeSweep(semicont.SmallSystem(), Options{HorizonHours: 5.0 / 3600, Trials: trials, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	skipped := false
	for _, s := range out.Figures[1].Series {
		for _, p := range s.Points {
			if p.N > trials {
				t.Errorf("%s x=%g: %d samples from %d trials", s.Name, p.X, p.N, trials)
			}
			skipped = skipped || p.N < trials
		}
	}
	if !skipped {
		t.Error("every denial point counts all trials: no trial was arrival-free, or arrival-free trials count as denial 0")
	}
}

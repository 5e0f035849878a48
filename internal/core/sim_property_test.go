package core

import (
	"testing"
	"testing/quick"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// buildRandomSim assembles a small but fully random simulation: random
// cluster size, staging, migration and demand skew, audited. It is the
// workhorse of the property tests below.
func buildRandomSim(t testing.TB, seed uint64, staging, migration bool) (*Engine, float64) {
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 20,
		MinLength: 300,
		MaxLength: 900,
		ViewRate:  3,
		Theta:     float64(int(seed%7))/2 - 1.5, // −1.5 … 1.5
	}, rng.New(rng.DeriveSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	nServers := 2 + int(seed%4)
	caps := make([]float64, nServers)
	bws := make([]float64, nServers)
	for i := range caps {
		caps[i] = 1e6
		bws[i] = 30 + float64((seed>>3)%4)*15 // 30–75 Mb/s
	}
	lay, err := placement.Build(placement.Even{}, cat, 2.0, caps, rng.New(rng.DeriveSeed(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ServerBandwidth: bws,
		ViewRate:        3,
	}
	if staging {
		cfg.Workahead = true
		cfg.BufferCapacity = cat.AvgSize() * 0.2
		cfg.ReceiveCap = 30
	}
	if migration {
		cfg.Migration = MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1}
	}
	total := 0.0
	for _, b := range bws {
		total += b
	}
	rate, err := workload.CalibratedRate(cat, total, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(cat, rate, rng.New(rng.DeriveSeed(seed, 3)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, cat, lay, gen)
	if err != nil {
		t.Fatal(err)
	}
	return audited(t, e), total
}

// TestRandomSimsRespectInvariants runs randomized mini-simulations
// under the model checker (any violation fails the run).
// It also verifies the global accounting identities:
//
//	arrivals  = accepted + rejected
//	delivered = accepted bytes (exactly, once drained with no failures)
//	completions = accepted
func TestRandomSimsRespectInvariants(t *testing.T) {
	prop := func(seedRaw uint16, staging, migration bool) bool {
		e, _ := buildRandomSim(t, uint64(seedRaw)+1, staging, migration)
		m, err := e.Run(2 * 3600)
		if err != nil {
			return false
		}
		if m.Arrivals != m.Accepted+m.Rejected {
			return false
		}
		if m.Completions != m.Accepted {
			return false
		}
		return approx(m.DeliveredBytes, m.AcceptedBytes, 1e-3)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStagingNeverHurtsUtilization checks the paper's core monotonicity
// on random workloads: adding client staging can only increase (or
// leave unchanged) the number of accepted requests, since early
// finishes free slots strictly sooner.
func TestStagingNeverHurtsUtilization(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		base, _ := buildRandomSim(t, seed, false, false)
		staged, _ := buildRandomSim(t, seed, true, false)
		mb, err := base.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := staged.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		if mb.Arrivals != ms.Arrivals {
			t.Fatalf("seed %d: workloads diverged (%d vs %d arrivals)", seed, mb.Arrivals, ms.Arrivals)
		}
		// Not a theorem per-sample-path (an early acceptance can shift
		// later ones), so allow a whisker of slack but demand the trend.
		if float64(ms.Accepted) < float64(mb.Accepted)*0.99 {
			t.Errorf("seed %d: staging reduced acceptances %d → %d", seed, mb.Accepted, ms.Accepted)
		}
	}
}

// TestDisablingStagingNeverDecreasesRejections is the metamorphic twin
// of TestStagingNeverHurtsUtilization: on the identical arrival stream,
// taking staging away can only reject more requests (or the same
// number), never fewer. Phrasing the property in terms of rejections
// catches a different failure mode — an engine that inflated Accepted
// while also inflating Arrivals would pass the acceptance check but
// fail this one.
func TestDisablingStagingNeverDecreasesRejections(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		staged, _ := buildRandomSim(t, seed, true, false)
		bare, _ := buildRandomSim(t, seed, false, false)
		ms, err := staged.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := bare.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		if mb.Arrivals != ms.Arrivals {
			t.Fatalf("seed %d: workloads diverged (%d vs %d arrivals)", seed, mb.Arrivals, ms.Arrivals)
		}
		// Same slack rationale as the acceptance-side test: the property
		// holds in expectation, not per sample path.
		slack := int64(float64(mb.Arrivals) * 0.01)
		if mb.Rejected < ms.Rejected-slack {
			t.Errorf("seed %d: disabling staging decreased rejections %d → %d",
				seed, ms.Rejected, mb.Rejected)
		}
	}
}

// TestMigrationNeverHurtsAcceptance mirrors the DRM claim.
func TestMigrationNeverHurtsAcceptance(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		base, _ := buildRandomSim(t, seed, false, false)
		migr, _ := buildRandomSim(t, seed, false, true)
		mb, err := base.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		mm, err := migr.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		if float64(mm.Accepted) < float64(mb.Accepted)*0.99 {
			t.Errorf("seed %d: DRM reduced acceptances %d → %d", seed, mb.Accepted, mm.Accepted)
		}
	}
}

// TestEngineDeterminism re-runs identical configurations and demands
// bit-identical metrics.
func TestEngineDeterminism(t *testing.T) {
	for _, mode := range []struct{ staging, migration bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		a, _ := buildRandomSim(t, 42, mode.staging, mode.migration)
		b, _ := buildRandomSim(t, 42, mode.staging, mode.migration)
		ma, err := a.Run(3600)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.Run(3600)
		if err != nil {
			t.Fatal(err)
		}
		if *ma != *mb {
			t.Errorf("mode %+v: metrics diverged:\n%+v\n%+v", mode, *ma, *mb)
		}
	}
}

// TestHopsNeverExceedBudget samples in-flight requests mid-run.
func TestHopsNeverExceedBudget(t *testing.T) {
	e, _ := buildRandomSim(t, 77, true, true)
	if err := e.Start(2 * 3600); err != nil {
		t.Fatal(err)
	}
	steps := 0
	for e.Step() {
		steps++
		if steps%500 == 0 {
			for _, r := range requestsInFlight(e) {
				if r.Hops > 1 {
					t.Fatalf("request %d has %d hops with MaxHops=1", r.ID, r.Hops)
				}
			}
		}
	}
	if steps == 0 {
		t.Fatal("simulation processed no events")
	}
}

// TestUtilizationBounded sanity-checks the headline metric on stressed
// random runs: it must lie in (0, 1.1] (slightly above 1 is possible
// because accepted streams may drain past the horizon).
func TestUtilizationBounded(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		e, total := buildRandomSim(t, seed, seed%2 == 0, seed%3 == 0)
		m, err := e.Run(2 * 3600)
		if err != nil {
			t.Fatal(err)
		}
		u := m.Utilization(total, 2*3600)
		if u <= 0 || u > 1.1 {
			t.Errorf("seed %d: utilization %v out of range", seed, u)
		}
	}
}

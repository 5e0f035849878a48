package core

import (
	"testing"
	"testing/quick"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// buildKitchenSink assembles an audited engine with an arbitrary
// combination of every feature the engine supports, driven by a seed;
// this is the engine's fuzz harness.
func buildKitchenSink(t testing.TB, seed uint64) (*Engine, Config) {
	cfg, cat, lay, mkSrc := kitchenSinkParts(t, seed)
	e, err := NewEngine(cfg, cat, lay, mkSrc())
	if err != nil {
		t.Fatal(err)
	}
	return audited(t, e), cfg
}

// kitchenSinkParts builds the kitchen-sink scenario without allocating
// the engine, so tests can run the identical scenario on fresh and
// Reset engines. mkSrc returns a fresh, identically seeded arrival
// stream on every call.
func kitchenSinkParts(t testing.TB, seed uint64) (Config, *catalog.Catalog, *placement.Layout, func() ArrivalSource) {
	p := rng.New(rng.DeriveSeed(seed, 0xf0))
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 10 + p.Intn(30),
		MinLength: 200,
		MaxLength: 200 + float64(p.Intn(1000)),
		ViewRate:  3,
		Theta:     p.UniformRange(-1.5, 1),
	}, rng.New(rng.DeriveSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	nServers := 2 + p.Intn(5)
	caps := make([]float64, nServers)
	bws := make([]float64, nServers)
	for i := range caps {
		caps[i] = 1e6
		bws[i] = 20 + float64(p.Intn(60))
	}
	avgCopies := 1.5 + p.Float64()
	if max := float64(nServers); avgCopies > max {
		avgCopies = max
	}
	lay, err := placement.Build(placement.Even{}, cat, avgCopies, caps, rng.New(rng.DeriveSeed(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		ServerBandwidth: bws,
		ServerStorage:   caps,
		ViewRate:        3,
	}
	if p.Float64() < 0.7 {
		cfg.Workahead = true
		cfg.BufferCapacity = cat.AvgSize() * p.UniformRange(0.02, 0.5)
		if p.Float64() < 0.5 {
			cfg.ReceiveCap = 30
		}
		if p.Float64() < 0.3 {
			cfg.Intermittent = true
			cfg.ResumeGuard = p.UniformRange(5, 60)
		}
		if p.Float64() < 0.3 {
			cfg.Spare = SpareDiscipline(p.Intn(3))
		}
	}
	if p.Float64() < 0.6 {
		cfg.Migration = MigrationConfig{
			Enabled:  true,
			MaxHops:  []int{UnlimitedHops, 1, 2}[p.Intn(3)],
			MaxChain: 1 + p.Intn(2),
		}
		if cfg.Workahead && p.Float64() < 0.3 {
			cfg.Migration.SwitchDelay = p.UniformRange(0, 10)
		}
	}
	if p.Float64() < 0.5 {
		cfg.Replication = ReplicationConfig{Enabled: true, CopyRateCap: 6}
	}
	if p.Float64() < 0.4 {
		cfg.Interactivity = InteractivityConfig{
			PauseProb: p.UniformRange(0.1, 0.9),
			MinPause:  10,
			MaxPause:  120,
			Seed:      seed,
		}
	}
	if p.Float64() < 0.5 {
		cfg.ClientClasses = []ClientClass{
			{Weight: 2, BufferCapacity: cfg.BufferCapacity, ReceiveCap: cfg.ReceiveCap},
			{Weight: 1, BufferCapacity: 0},
		}
		cfg.ClientSeed = seed
	}

	total := 0.0
	for _, b := range bws {
		total += b
	}
	rate, err := workload.CalibratedRate(cat, total, p.UniformRange(0.6, 1.2))
	if err != nil {
		t.Fatal(err)
	}
	mkSrc := func() ArrivalSource {
		gen, err := workload.New(cat, rate, rng.New(rng.DeriveSeed(seed, 3)))
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	return cfg, cat, lay, mkSrc
}

// TestKitchenSinkFuzz runs randomized simulations with every feature
// combination under the model checker and verifies the global
// accounting identities that must hold regardless of configuration.
func TestKitchenSinkFuzz(t *testing.T) {
	prop := func(seedRaw uint16, failServer uint8) bool {
		seed := uint64(seedRaw) + 1
		e, cfg := buildKitchenSink(t, seed)
		// Half the runs also kill a server mid-way.
		withFailure := seedRaw%2 == 0
		if withFailure {
			if err := e.ScheduleFailure(1800, int(failServer)%len(cfg.ServerBandwidth)); err != nil {
				return false
			}
		}
		m, err := e.Run(3600)
		if err != nil {
			return false
		}
		if m.Arrivals != m.Accepted+m.Rejected {
			return false
		}
		if m.Completions+m.DroppedStreams != m.Accepted {
			return false
		}
		if m.DeliveredBytes > m.AcceptedBytes+1e-3 {
			return false
		}
		if !withFailure {
			// Without failures every accepted byte is delivered.
			if !approx(m.DeliveredBytes, m.AcceptedBytes, 1e-3) {
				return false
			}
			if m.DroppedStreams != 0 || m.ReplicationsAborted != 0 {
				return false
			}
		}
		if !cfg.Intermittent && m.GlitchedStreams != 0 {
			return false
		}
		if !cfg.Migration.Enabled && m.Migrations != 0 {
			return false
		}
		if !cfg.Replication.Enabled && m.ReplicationsStarted != 0 {
			return false
		}
		if m.ReplicationsCompleted > m.ReplicationsStarted {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestKitchenSinkDeterminism re-runs full-feature configurations and
// demands bit-identical metrics.
func TestKitchenSinkDeterminism(t *testing.T) {
	for seed := uint64(100); seed < 106; seed++ {
		a, _ := buildKitchenSink(t, seed)
		b, _ := buildKitchenSink(t, seed)
		ma, err := a.Run(3600)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.Run(3600)
		if err != nil {
			t.Fatal(err)
		}
		if *ma != *mb {
			t.Errorf("seed %d: metrics diverged:\n%+v\n%+v", seed, *ma, *mb)
		}
	}
}

package core

import (
	"math"
	"reflect"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// TestResetEquivalence pins the engine-reuse contract: running a
// scenario on a Reset engine must produce metrics identical to running
// it on a freshly constructed one, even when the engine previously ran
// a completely different configuration (different server count, feature
// set, and seeds). The kitchen-sink builder supplies the scenario
// diversity; every feature's state must therefore survive — or be
// wiped by — Reset correctly. The reused engine is always audited; on
// odd seeds the fresh one is not, which also pins that auditing never
// changes a result.
func TestResetEquivalence(t *testing.T) {
	reused := new(Engine)
	for _, seed := range []uint64{1, 2, 3, 7, 11, 23, 42, 99} {
		cfg, cat, lay, mkSrc := kitchenSinkParts(t, seed)

		fresh, err := NewEngine(cfg, cat, lay, mkSrc())
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			audited(t, fresh)
		}
		if err := reused.Reset(cfg, cat, lay, mkSrc()); err != nil {
			t.Fatal(err)
		}
		audited(t, reused)
		// Odd seeds also kill and recover a server so the fault path's
		// per-run state (faultSched, parked, retryQ) is exercised.
		if seed%2 == 1 {
			id := int(seed) % len(cfg.ServerBandwidth)
			for _, e := range []*Engine{fresh, reused} {
				if err := e.ScheduleFailure(600, id); err != nil {
					t.Fatal(err)
				}
				if err := e.ScheduleRecovery(1200, id, seed%4 == 1); err != nil {
					t.Fatal(err)
				}
			}
		}

		mf, errF := fresh.Run(1800)
		mr, errR := reused.Run(1800)
		if (errF == nil) != (errR == nil) {
			t.Fatalf("seed %d: fresh err %v, reused err %v", seed, errF, errR)
		}
		if errF != nil {
			continue
		}
		if *mf != *mr {
			t.Errorf("seed %d: metrics diverge\nfresh:  %+v\nreused: %+v", seed, *mf, *mr)
		}
	}
}

// TestResetClearsLanes walks the lane struct by reflection so the check
// cannot silently rot: every slice column must be truncated to length
// zero by Reset and keep the capacity the run grew on some server (that
// is the point of engine reuse, and a column no run ever fills is
// dead), the wake-index scalars must be back at their empty-server
// values, and any field of a kind this test does not recognize fails it
// outright — adding a column to lane without teaching lane.push,
// lane.remove, lane.reset (and this test) about it is a bug.
func TestResetClearsLanes(t *testing.T) {
	cfg, cat, lay, mkSrc := kitchenSinkParts(t, 7)
	e, err := NewEngine(cfg, cat, lay, mkSrc())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audited(t, e).Run(1800); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(cfg, cat, lay, mkSrc()); err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, s := range e.servers {
		checkLaneReset(t, s, kept)
	}
	for name, ok := range kept {
		if !ok {
			t.Errorf("lane.%s kept no capacity on any server: the run never filled it", name)
		}
	}
}

// TestResetEmptiesParkLane stops parkScenario while A is parked and
// Resets the engine: the park lane must come back empty, keeping the
// capacity A's slot grew, and no stream may stay parked.
func TestResetEmptiesParkLane(t *testing.T) {
	e, _ := parkScenario(t)
	if err := e.Start(2000); err != nil {
		t.Fatal(err)
	}
	for e.metrics.DegradedParked == 0 && e.Step() {
	}
	if len(e.parkLane.active) != 1 || len(e.parked) != 1 {
		t.Fatalf("%d slots in the park lane, %d parked streams, want 1/1", len(e.parkLane.active), len(e.parked))
	}
	if err := e.Reset(e.cfg, e.cat, e.layout, &scriptSource{}); err != nil {
		t.Fatal(err)
	}
	if len(e.parked) != 0 {
		t.Errorf("%d parked streams after Reset", len(e.parked))
	}
	kept := map[string]bool{}
	checkLaneReset(t, &e.parkLane, kept)
	for name, ok := range kept {
		if !ok {
			t.Errorf("park lane: lane.%s kept no capacity", name)
		}
	}
}

// checkLaneReset checks that Reset emptied s: no active streams, every
// lane column empty, and the wake-index scalars at their empty-server
// values. It records in kept, by column, whether the column kept any
// capacity.
func checkLaneReset(t *testing.T, s *server, kept map[string]bool) {
	t.Helper()
	if n := len(s.active); n != 0 {
		t.Errorf("server %d: %d active streams after Reset", s.id, n)
	}
	ln := reflect.ValueOf(&s.ln).Elem()
	tp := ln.Type()
	for fi := 0; fi < tp.NumField(); fi++ {
		f := tp.Field(fi)
		v := ln.Field(fi)
		switch {
		case f.Type.Kind() == reflect.Slice:
			if v.Len() != 0 {
				t.Errorf("server %d: lane.%s has %d entries after Reset", s.id, f.Name, v.Len())
			}
			kept[f.Name] = kept[f.Name] || v.Cap() > 0
		case f.Name == "wakeMin":
			if got := v.Float(); !math.IsInf(got, 1) {
				t.Errorf("server %d: lane.wakeMin = %v after Reset, want +Inf", s.id, got)
			}
		case f.Name == "wakeArg":
			if got := v.Int(); got != int64(wakeArgNone) {
				t.Errorf("server %d: lane.wakeArg = %d after Reset, want %d", s.id, got, wakeArgNone)
			}
		case f.Name == "wakeDirty":
			if v.Bool() {
				t.Errorf("server %d: lane.wakeDirty set after Reset", s.id)
			}
		default:
			t.Errorf("lane.%s: kind %s not covered by this test — extend lane.reset and the cases above", f.Name, f.Type.Kind())
		}
	}
}

// benchTrialParts is a mid-sized scenario representative of one sweep
// trial: four servers, DRM enabled, workahead buffering, calibrated to
// 90% load.
func benchTrialParts(b *testing.B) (Config, *catalog.Catalog, *placement.Layout, func() ArrivalSource) {
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 50, MinLength: 600, MaxLength: 7200, ViewRate: 3, Theta: 0.271,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	caps := []float64{1e6, 1e6, 1e6, 1e6}
	bws := []float64{100, 100, 100, 100}
	lay, err := placement.Build(placement.Even{}, cat, 2, caps, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		ServerBandwidth: bws,
		ServerStorage:   caps,
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  cat.AvgSize() * 0.1,
		Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1},
	}
	rate, err := workload.CalibratedRate(cat, 400, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	mkSrc := func() ArrivalSource {
		gen, err := workload.New(cat, rate, rng.New(3))
		if err != nil {
			b.Fatal(err)
		}
		return gen
	}
	return cfg, cat, lay, mkSrc
}

// BenchmarkTrialReset measures one sweep trial on a reused engine —
// Reset plus Run — against BenchmarkTrialFresh's NewEngine per trial.
// The allocs/op gap is the garbage the reuse path avoids: everything
// but the arrival generator survives across trials.
func BenchmarkTrialReset(b *testing.B) {
	cfg, cat, lay, mkSrc := benchTrialParts(b)
	e := new(Engine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(cfg, cat, lay, mkSrc()); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(1800); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialFresh is the pre-reuse baseline: a new engine per trial.
func BenchmarkTrialFresh(b *testing.B) {
	cfg, cat, lay, mkSrc := benchTrialParts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(cfg, cat, lay, mkSrc())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(1800); err != nil {
			b.Fatal(err)
		}
	}
}

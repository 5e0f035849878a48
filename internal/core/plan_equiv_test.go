package core

import (
	"fmt"
	"math"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// planDirectPairs is the DRM planner's definition as a pair scan: every
// migratable slot of s, every holder of its title but s that can accept
// one more stream, and the lexicographic minimum over (target load,
// request id, target id). planDirect must return the same move while
// finding each title's target once; TestPlanDirectMatchesPairScan holds
// it to this reference.
func (e *Engine) planDirectPairs(s *server, now float64) (move, bool) {
	ln := &s.ln
	var bestTo *server
	var bestID int64
	best, bestLoad := -1, -1
	for i := range ln.meta {
		if !e.migratable(s, i, now, false) {
			continue
		}
		id := ln.meta[i].ID
		for _, h := range e.holders(int(ln.meta[i].Video)) {
			t := e.servers[h]
			if t == s || !e.canAccept(t, now) {
				continue
			}
			if bestLoad == -1 || t.load() < bestLoad ||
				(t.load() == bestLoad && (id < bestID || (id == bestID && t.id < bestTo.id))) {
				best, bestID, bestTo, bestLoad = i, id, t, t.load()
			}
		}
	}
	if best < 0 {
		return move{}, false
	}
	return move{r: s.active[best], to: bestTo}, true
}

// planEquivParts builds one small overloaded DRM cluster from a seed:
// a mix of hops budgets and chain bounds, staging with partly filled
// buffers, a switch delay that vetoes some of them, intermittent
// admission, patching's pinned streams, viewer pauses, replication
// (whose merged holder lists are not in server order), and failures
// with recoveries. mkEngine returns a fresh, identically seeded engine
// with the failures scheduled on every call.
func planEquivParts(t *testing.T, seed uint64) (cfg Config, mkEngine func() *Engine) {
	p := rng.New(rng.DeriveSeed(seed, 0x706c616e)) // "plan"
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 8 + p.Intn(16),
		MinLength: 300,
		MaxLength: 300 + float64(p.Intn(900)),
		ViewRate:  3,
		Theta:     p.UniformRange(-1, 1),
	}, rng.New(rng.DeriveSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	nServers := 3 + p.Intn(5)
	caps := make([]float64, nServers)
	bws := make([]float64, nServers)
	for i := range caps {
		caps[i] = 1e6
		bws[i] = 3 * float64(3+p.Intn(8)) // 3–10 slots
	}
	lay, err := placement.Build(placement.Even{}, cat, math.Min(1.5+p.Float64(), float64(nServers)), caps, rng.New(rng.DeriveSeed(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{
		ServerBandwidth: bws,
		ServerStorage:   caps,
		ViewRate:        3,
		Migration: MigrationConfig{
			Enabled:  true,
			MaxHops:  []int{UnlimitedHops, 1, 2}[p.Intn(3)],
			MaxChain: 1 + p.Intn(2),
		},
	}
	if p.Float64() < 0.8 {
		cfg.Workahead = true
		cfg.BufferCapacity = cat.AvgSize() * p.UniformRange(0.02, 0.3)
		if p.Float64() < 0.5 {
			cfg.ReceiveCap = 3 * float64(2+p.Intn(4))
		}
		if p.Float64() < 0.6 {
			cfg.Migration.SwitchDelay = p.UniformRange(1, 20)
		}
		if p.Float64() < 0.4 {
			cfg.Intermittent = true
			cfg.ResumeGuard = p.UniformRange(5, 60)
		}
	}
	switch u := p.Float64(); {
	case u < 0.35 && !cfg.Intermittent:
		cfg.Edge = EdgeConfig{Batch: BatchPatch, BatchWindow: p.UniformRange(60, 600)}
	case u < 0.6:
		cfg.Interactivity = InteractivityConfig{PauseProb: 0.5, MinPause: 10, MaxPause: 120, Seed: seed}
	}
	if p.Float64() < 0.5 {
		cfg.Replication = ReplicationConfig{Enabled: true, CopyRateCap: 6}
	}
	if p.Float64() < 0.5 {
		cfg.Degraded = DegradedConfig{Enabled: true}
	}
	horizon := 2 * 3600.0
	type outage struct {
		server        int
		fail, recover float64
		cold          bool
	}
	var outages []outage
	for k := p.Intn(3); k > 0; k-- {
		at := p.UniformRange(600, horizon-1200)
		outages = append(outages, outage{p.Intn(nServers), at, at + p.UniformRange(300, 1800), p.Float64() < 0.5})
	}
	rate, err := workload.CalibratedRate(cat, cfg.TotalBandwidth(), p.UniformRange(1.0, 1.6))
	if err != nil {
		t.Fatal(err)
	}
	return cfg, func() *Engine {
		gen, err := workload.New(cat, rate, rng.New(rng.DeriveSeed(seed, 3)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(cfg, cat, lay, gen)
		if err != nil {
			t.Fatal(err)
		}
		audited(t, e)
		seen := map[int]bool{}
		for _, o := range outages {
			if seen[o.server] {
				continue // one outage per server keeps the schedule ordered
			}
			seen[o.server] = true
			if err := e.ScheduleFailure(o.fail, o.server); err != nil {
				t.Fatal(err)
			}
			if err := e.ScheduleRecovery(o.recover, o.server, o.cold); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Start(horizon); err != nil {
			t.Fatal(err)
		}
		return e
	}
}

// TestPlanDirectMatchesPairScan steps two identical engines in lock
// step and, after each arrival, plans a direct move from every live
// server of both: the reference pair scan on one, planDirect on the
// other. The moves must agree in request and target, and since
// canAccept syncs each server it tests under intermittent admission,
// every lane's last and sent columns must stay bit-identical, so both
// planners synced the same servers to the same instant.
// Metrics.MigrationsRefusedByBuffer is left out: planDirect skips the
// slots of a title with no target before their buffer test.
func TestPlanDirectMatchesPairScan(t *testing.T) {
	seeds := uint64(60)
	if testing.Short() {
		seeds = 20
	}
	// seen tallies the situations the probes met, so the test cannot
	// pass by never meeting one of them.
	var seen struct {
		moves, none, intermittent, suspended, pinned, vetoed, spent, failed, replicated int
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg, mkEngine := planEquivParts(t, seed)
		ref, got := mkEngine(), mkEngine()
		for n := 0; ; n++ {
			arrivals := ref.metrics.Arrivals
			okRef, okGot := ref.Step(), got.Step()
			if okRef != okGot || ref.now != got.now {
				t.Fatalf("seed %d event %d: engines diverged (step %v/%v, now %g/%g)", seed, n, okRef, okGot, ref.now, got.now)
			}
			if !okRef {
				break
			}
			if ref.metrics.Arrivals == arrivals {
				// Plan only at an arrival's instant, where the controller
				// plans: a sync at another event's instant can land on a
				// suspension deadline before the wake that ends it.
				continue
			}
			now := ref.now
			for i, sr := range ref.servers {
				if sr.failed {
					seen.failed++
					continue
				}
				sg := got.servers[i]
				sr.syncAll(now)
				sg.syncAll(now)
				for j, f := range sr.ln.flags {
					if sr.suspendedAt(j, now) {
						seen.suspended++
					}
					if f&slotPinned != 0 {
						seen.pinned++
					}
					if mh := cfg.Migration.MaxHops; mh != UnlimitedHops && int(sr.ln.meta[j].Hops) >= mh {
						seen.spent++
					}
				}
				vetoes := ref.metrics.MigrationsRefusedByBuffer
				want, wantOK := ref.planDirectPairs(sr, now)
				if ref.metrics.MigrationsRefusedByBuffer > vetoes {
					seen.vetoed++
				}
				have, haveOK := got.planDirect(sg, now)
				if wantOK != haveOK || wantOK && (want.r.id != have.r.id || want.to.id != have.to.id) {
					t.Fatalf("seed %d event %d t=%g server %d: planDirect = %s, pair scan = %s",
						seed, n, now, sr.id, describeMove(have, haveOK), describeMove(want, wantOK))
				}
				if wantOK {
					seen.moves++
				} else {
					seen.none++
				}
				if cfg.Intermittent {
					seen.intermittent++
				}
				if len(ref.extraHolders) > 0 {
					seen.replicated++
				}
				if err := sameFluidState(ref, got); err != nil {
					t.Fatalf("seed %d event %d t=%g after planning from server %d: %s", seed, n, now, sr.id, err)
				}
			}
		}
		if ref.auditErr != nil || got.auditErr != nil {
			t.Fatalf("seed %d: audit: %v / %v", seed, ref.auditErr, got.auditErr)
		}
	}
	t.Logf("probes met: %+v", seen)
	if seen.moves == 0 || seen.none == 0 || seen.intermittent == 0 || seen.suspended == 0 || seen.pinned == 0 ||
		seen.vetoed == 0 || seen.spent == 0 || seen.failed == 0 || seen.replicated == 0 {
		t.Errorf("the probes missed a situation they are meant to cover: %+v", seen)
	}
}

// describeMove formats a planner result for a failure message.
func describeMove(m move, ok bool) string {
	if !ok {
		return "no move"
	}
	return fmt.Sprintf("request %d to server %d", m.r.id, m.to.id)
}

// sameFluidState reports the first lane slot whose last or sent column
// differs between a and b in any bit.
func sameFluidState(a, b *Engine) error {
	for i, sa := range a.servers {
		la, lb := &sa.ln, &b.servers[i].ln
		if len(la.last) != len(lb.last) {
			return fmt.Errorf("server %d: %d slots vs %d", i, len(la.last), len(lb.last))
		}
		for j := range la.last {
			if math.Float64bits(la.last[j]) != math.Float64bits(lb.last[j]) ||
				math.Float64bits(la.sent[j]) != math.Float64bits(lb.sent[j]) {
				return fmt.Errorf("server %d slot %d: last/sent %v/%v vs %v/%v",
					i, j, la.last[j], la.sent[j], lb.last[j], lb.sent[j])
			}
		}
	}
	return nil
}

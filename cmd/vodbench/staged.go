package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"semicont"
	"semicont/internal/audit"
	"semicont/internal/catalog"
	"semicont/internal/core"
	"semicont/internal/faults"
	"semicont/internal/placement"
	"semicont/internal/rng"
	wl "semicont/internal/workload"
)

// The staged pipeline rebuilds semicont.Run from the layers' public
// functions so each stage can be timed from outside. It must derive the
// same seed streams and the same engine configuration as run.go; every
// traced run checks that it reproduced the entry point's output bit for
// bit, so drift fails the benchmark instead of skewing it.

// Seed-stream labels of semicont.Run.
const (
	seedCatalog uint64 = iota + 1
	seedPlacement
	seedArrivals
	seedClients
	seedInteract
	seedFaults
	seedSelector
)

// The set-up stages, in the order semicont.Run performs them.
const (
	stageCatalog = iota
	stagePlacement
	stageWorkload
	stageReset
	stageFaults
	numStages
)

var stageNames = [numStages]string{"catalog.generate", "placement.build", "workload.init", "core.reset", "faults.compile"}

// job is one simulation set up and ready to Start. marks[i] and
// marks[i+1] bound set-up stage i.
type job struct {
	sc    semicont.Scenario
	eng   *core.Engine
	lay   *placement.Layout
	rate  float64
	bufMb float64
	marks [numStages + 1]time.Time
}

// enginePool recycles engines across traced jobs the way semicont.Run
// recycles them across runs, so both pay the same construction cost.
var enginePool sync.Pool

// checkStaged rejects scenarios using a feature whose configuration the
// staged pipeline does not rebuild.
func checkStaged(sc semicont.Scenario) error {
	p := sc.Policy
	if p.Placement == semicont.PartialPredictivePlacement || p.Intermittent || p.Spare != semicont.EFTFSpare ||
		(p.Allocator != "" && p.Allocator != semicont.AllocatorEFTF) || len(p.ClientMix) > 0 || p.Replicate ||
		p.PatchWindowSec > 0 || p.PauseProb > 0 || len(p.Classes) > 0 || p.ShedWatermark > 0 ||
		!sc.Curve.IsZero() || sc.FailAtHours > 0 || sc.Shards > 1 || sc.CheckInvariants || sc.Observer != nil {
		return fmt.Errorf("vodbench: scenario %q uses a feature the staged pipeline does not rebuild", p.Name)
	}
	return nil
}

func generateCatalog(sc semicont.Scenario) (*catalog.Catalog, error) {
	sys := sc.System
	return catalog.Generate(catalog.Config{
		NumVideos: sys.NumVideos,
		MinLength: sys.MinVideoLength,
		MaxLength: sys.MaxVideoLength,
		ViewRate:  sys.ViewRate,
		Theta:     sc.Theta,
	}, rng.New(rng.DeriveSeed(sc.Seed, seedCatalog)))
}

func newGenerator(sc semicont.Scenario, cat *catalog.Catalog) (float64, *wl.Generator, error) {
	load := sc.LoadFactor
	if load == 0 {
		load = 1
	}
	rate, err := wl.CalibratedRate(cat, sc.System.TotalBandwidth(), load)
	if err != nil {
		return 0, nil, err
	}
	gen, err := wl.New(cat, rate, rng.New(rng.DeriveSeed(sc.Seed, seedArrivals)))
	return rate, gen, err
}

// perServer expands a homogeneous system value to one entry per server.
func perServer(each []float64, v float64, n int) []float64 {
	if each != nil {
		return each
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// orOne decodes Policy's zero-means-one convention for MaxHops and
// MaxChain.
func orOne(v int) int {
	if v == 0 {
		return 1
	}
	return v
}

func engineConfig(sc semicont.Scenario, cat *catalog.Catalog) core.Config {
	sys, pol := sc.System, sc.Policy
	cfg := core.Config{
		ServerBandwidth: perServer(sys.Bandwidths, sys.ServerBandwidth, sys.NumServers),
		ViewRate:        sys.ViewRate,
		BufferCapacity:  pol.StagingFrac * cat.AvgSize(),
		Workahead:       pol.StagingFrac > 0,
		Allocator:       pol.Allocator,
		Selector:        pol.Selector,
		Planner:         pol.Planner,
		SelectorSeed:    rng.DeriveSeed(sc.Seed, seedSelector),
		ResumeGuard:     pol.ResumeGuard,
		Shards:          sc.Shards,
		Migration: core.MigrationConfig{
			Enabled:     pol.Migration,
			MaxHops:     orOne(pol.MaxHops),
			MaxChain:    orOne(pol.MaxChain),
			SwitchDelay: pol.SwitchDelay,
		},
		Edge: core.EdgeConfig{
			Nodes:       pol.EdgeNodes,
			PrefixSec:   pol.EdgePrefixSec,
			CacheMb:     pol.EdgeCacheMb,
			CachePolicy: pol.EdgeCachePolicy,
			Batch:       pol.BatchPolicy,
			BatchWindow: pol.BatchWindowSec,
		},
		Interactivity: core.InteractivityConfig{Seed: rng.DeriveSeed(sc.Seed, seedInteract)},
		Retry: core.RetryConfig{
			Enabled:  pol.RetryQueue,
			MaxQueue: pol.RetryMaxQueue,
			Patience: pol.RetryPatienceSec,
			Backoff:  pol.RetryBackoffSec,
		},
		Degraded: core.DegradedConfig{
			Enabled:       pol.DegradedPlayback,
			RetryInterval: pol.DegradedRetrySec,
		},
		ClientSeed: rng.DeriveSeed(sc.Seed, seedClients),
	}
	if cfg.Workahead {
		switch {
		case pol.ReceiveCap < 0:
		case pol.ReceiveCap == 0:
			cfg.ReceiveCap = semicont.DefaultReceiveCap
		default:
			cfg.ReceiveCap = pol.ReceiveCap
		}
	}
	return cfg
}

// prepare performs semicont.Run's set-up stage by stage on eng:
// catalog → placement → calibration and generator → Engine.Reset →
// fault schedule. A non-nil tracer wraps the generator in its timing
// source.
func prepare(sc semicont.Scenario, eng *core.Engine, tr *tracer) (*job, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if err := checkStaged(sc); err != nil {
		return nil, err
	}
	j := &job{sc: sc, eng: eng}
	sys := sc.System
	j.marks[stageCatalog] = time.Now()
	cat, err := generateCatalog(sc)
	if err != nil {
		return nil, err
	}
	j.marks[stagePlacement] = time.Now()
	var strat placement.Strategy = placement.Even{}
	if sc.Policy.Placement == semicont.PredictivePlacement {
		strat = placement.Predictive{}
	}
	j.lay, err = placement.Build(strat, cat, sys.AvgCopies,
		perServer(sys.Capacities, sys.DiskCapacity, sys.NumServers),
		rng.New(rng.DeriveSeed(sc.Seed, seedPlacement)))
	if err != nil {
		return nil, err
	}
	j.marks[stageWorkload] = time.Now()
	rate, gen, err := newGenerator(sc, cat)
	if err != nil {
		return nil, err
	}
	j.rate = rate
	var src core.ArrivalSource = gen
	if tr != nil {
		src = timedSource{gen, tr}
	}
	j.marks[stageReset] = time.Now()
	cfg := engineConfig(sc, cat)
	j.bufMb = cfg.BufferCapacity
	if err := eng.Reset(cfg, cat, j.lay, src); err != nil {
		return nil, err
	}
	j.marks[stageFaults] = time.Now()
	if sc.Faults.Enabled() {
		sched, err := faults.Compile(sc.Faults, sys.NumServers, sc.HorizonHours,
			rng.DeriveSeed(sc.Seed, seedFaults))
		if err != nil {
			return nil, err
		}
		for _, fe := range sched {
			switch {
			case fe.Brownout && fe.Recover:
				err = eng.ScheduleRestore(fe.At, fe.Server)
			case fe.Brownout:
				err = eng.ScheduleBrownout(fe.At, fe.Server, fe.Fraction)
			case fe.Recover:
				err = eng.ScheduleRecovery(fe.At, fe.Server, fe.Cold)
			default:
				err = eng.ScheduleFailure(fe.At, fe.Server)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	j.marks[numStages] = time.Now()
	return j, nil
}

// run attaches the scenario's auditor and sketches plus the tracer's
// observer, drives the engine with Start and a timed Step loop, and
// assembles the Result semicont.Run would have returned.
func (j *job) run(tr *tracer) (*semicont.Result, error) {
	eng, sc := j.eng, j.sc
	var auditor *audit.Auditor
	if sc.Audit {
		auditor = audit.New()
		eng.SetAuditTap(timedAudit{auditor, tr})
		tr.audited = true
		eng.SetAuditSampling(sc.AuditSample)
	}
	var dist *semicont.DistStats
	if sc.Stats {
		dist = new(semicont.DistStats)
		eng.SetAccumulator(core.ObsWait, &dist.Wait)
		eng.SetAccumulator(core.ObsRetrySojourn, &dist.RetrySojourn)
		eng.SetAccumulator(core.ObsGlitch, &dist.Glitch)
		eng.SetAccumulator(core.ObsMigrations, &dist.Migrations)
		eng.SetAccumulator(core.ObsPark, &dist.Park)
		eng.SetAccumulator(core.ObsEdgeWait, &dist.EdgeWait)
	}
	eng.SetObserver(tr)
	horizon := sc.HorizonHours * 3600
	if err := eng.Start(horizon); err != nil {
		return nil, err
	}
	tr.stepLoop(eng)
	if err := eng.AuditErr(); err != nil {
		return nil, err
	}
	m := eng.Metrics()
	if auditor != nil {
		if err := auditor.End(eng.Now(), *m); err != nil {
			return nil, err
		}
	}

	sys := sc.System
	res := &semicont.Result{
		Utilization:        m.Utilization(sys.TotalBandwidth(), horizon),
		RejectionRatio:     m.RejectionRatio(),
		AcceptedMb:         m.AcceptedBytes,
		DeliveredMb:        m.DeliveredBytes,
		ArrivalRate:        j.rate,
		TotalBandwidthMbps: sys.TotalBandwidth(),
		HorizonSeconds:     horizon,
		StagingBufferMb:    j.bufMb,
		PlacedCopies:       j.lay.TotalCopies(),
		PlacementShortfall: j.lay.Shortfall(),
		Dist:               dist,
	}
	// Every other Result counter is the core.Metrics field of the same
	// name; copying by name keeps this in step as counters are added.
	rv, mv := reflect.ValueOf(res).Elem(), reflect.ValueOf(*m)
	for i := 0; i < mv.NumField(); i++ {
		if f := rv.FieldByName(mv.Type().Field(i).Name); f.IsValid() {
			f.Set(mv.Field(i))
		}
	}
	if m.AdmissionsViaDRM > 0 {
		res.MeanChainLength = float64(m.ChainLengthTotal) / float64(m.AdmissionsViaDRM)
	}
	if auditor != nil {
		res.AuditedEvents = int64(auditor.Events())
	}
	return res, nil
}

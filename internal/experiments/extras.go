package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/analytic"
	"semicont/internal/report"
	"semicont/internal/stats"
	"semicont/internal/units"
)

// PriorStudiesTheta is the Zipf skew used by earlier video-server
// studies the paper cites (Dan & Sitaram): θ ≈ 0.271.
const PriorStudiesTheta = 0.271

// StagingSweep quantifies the headline claim of the abstract: "a client
// buffer size (staging degree) of 20 percent (of object size) is near
// optimal for most objects". It sweeps the staging fraction on both
// systems at θ = 0.271 with even placement and no migration.
func StagingSweep(opts Options) (*Output, error) {
	opts = opts.withDefaults()
	fracs := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}
	w := newSweeper(opts)
	var refs []seriesRef
	for _, sys := range []semicont.System{semicont.SmallSystem(), semicont.LargeSystem()} {
		system := sys
		refs = append(refs, w.series(system.Name, fracs, func(frac float64) semicont.Scenario {
			return semicont.Scenario{
				System: system,
				Policy: semicont.Policy{
					Name:        fmt.Sprintf("stage-%g", frac),
					Placement:   semicont.EvenPlacement,
					StagingFrac: frac,
					ReceiveCap:  semicont.DefaultReceiveCap,
				},
				Theta: PriorStudiesTheta,
			}
		}))
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var series []stats.Series
	for _, r := range refs {
		series = append(series, r.utilization())
	}
	return &Output{
		ID:    "stage",
		Title: "Staging-degree sweep (abstract's 20% claim)",
		Figures: []Figure{{
			ID:     "stage",
			Title:  "Utilization vs. staging buffer fraction (theta = 0.271, even placement, no migration)",
			XLabel: "buffer-fraction",
			YLabel: "utilization",
			Series: series,
			Notes:  "Expected shape: steep rise up to ~0.2, then a plateau - 20% of the average object size captures nearly the whole staging benefit.",
		}},
	}, nil
}

// SVBR validates the simulator against the Erlang-B analytical model of
// Section 3.2 / the full version [5]: a single server with k = SVBR
// minimum-flow slots under calibrated load is an M/G/k/k loss system,
// so expected utilization is 1 − B(k, k).
func SVBR(opts Options) (*Output, error) {
	opts = opts.withDefaults()
	ratios := []float64{5, 10, 20, 33, 50, 100, 200}
	w := newSweeper(opts)
	simRef := w.series("simulated", ratios, func(svbr float64) semicont.Scenario {
		return semicont.Scenario{
			System: semicont.SingleServer(int(svbr)),
			Policy: semicont.Policy{Name: "plain", Placement: semicont.EvenPlacement},
			Theta:  1, // uniform demand; irrelevant with one server
		}
	})
	if err := w.wait(); err != nil {
		return nil, err
	}
	sim := simRef.utilization()
	ana := stats.Series{Name: "erlang-b"}
	for _, k := range ratios {
		u, err := analytic.ExpectedUtilization(int(k), 1)
		if err != nil {
			return nil, err
		}
		ana.Points = append(ana.Points, stats.Point{X: k, Mean: u, N: 1})
	}
	return &Output{
		ID:    "svbr",
		Title: "Server-to-view bandwidth ratio: simulation vs. Erlang-B analysis",
		Figures: []Figure{{
			ID:     "svbr",
			Title:  "Single-server utilization vs. SVBR (offered load = capacity)",
			XLabel: "svbr",
			YLabel: "utilization",
			Series: []stats.Series{sim, ana},
			Notes:  "Expected shape: monotone rise toward 1 with growing SVBR; simulated and analytic curves agree closely, validating the simulator (as the paper reports of its own).",
		}},
	}, nil
}

// Heterogeneity reproduces the Section 4.6 study: cluster classes of 5,
// 10 and 20 servers, each homogeneous, bandwidth-heterogeneous or
// storage-heterogeneous with totals preserved (spread level 0.5),
// running policy P4 at θ = 0.271.
func Heterogeneity(opts Options) (*Output, error) {
	opts = opts.withDefaults()
	sizes := []float64{5, 10, 20}
	const level = 0.5
	profiles := []struct {
		name               string
		bandwidth, storage float64 // spread level of each resource
	}{
		{"homogeneous", 0, 0},
		{"bandwidth-hetero", level, 0},
		{"storage-hetero", 0, level},
	}
	w := newSweeper(opts)
	var refs []seriesRef
	for _, prof := range profiles {
		refs = append(refs, w.series(prof.name, sizes, func(n float64) semicont.Scenario {
			sys := semicont.SmallSystem()
			sys.Name = fmt.Sprintf("het-%s-%d", prof.name, int(n))
			sys.NumServers = int(n)
			sys.Bandwidths = spread(int(n), sys.ServerBandwidth, prof.bandwidth)
			sys.Capacities = spread(int(n), sys.DiskCapacity, prof.storage)
			return semicont.Scenario{System: sys, Policy: semicont.PolicyP4(), Theta: PriorStudiesTheta}
		}))
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var series []stats.Series
	for _, r := range refs {
		series = append(series, r.utilization())
	}
	return &Output{
		ID:    "het",
		Title: "Heterogeneity study (Section 4.6)",
		Figures: []Figure{{
			ID:     "het",
			Title:  "Utilization vs. cluster size under resource heterogeneity (spread 0.5, policy P4, theta = 0.271)",
			XLabel: "servers",
			YLabel: "utilization",
			Series: series,
			Notes:  "Expected shape: heterogeneity hurts the small cluster most; larger clusters absorb it. Storage heterogeneity is close to statistical noise, bandwidth heterogeneity is the visible effect.",
		}},
	}, nil
}

// spread returns n per-server values of a resource with the given mean,
// so a heterogeneous cluster keeps the homogeneous cluster's total:
// servers pair up (0,1), (2,3), … as mean·(1 ± level), high then low,
// and an odd middle server keeps the mean. Level 0 is homogeneous.
func spread(n int, mean, level float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mean
	}
	for i := 0; i+1 < n; i += 2 {
		out[i], out[i+1] = mean*(1+level), mean*(1-level)
	}
	return out
}

// PartialPredictive reproduces the Section 4.4 observation: a mildly
// skewed allocation (a few extra copies of the most popular videos)
// plus DRM and staging approaches the perfect predictive scheme even
// under strongly skewed demand.
func PartialPredictive(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	thetas := opts.Thetas
	if len(thetas) == len(DefaultThetaSweep()) {
		thetas = []float64{-1.5, -1.0, -0.5, 0, 0.5} // skew is where the action is
	}
	policies := []semicont.Policy{
		{Name: "even", Placement: semicont.EvenPlacement, Migration: true, StagingFrac: 0.2},
		{Name: "partial-predictive", Placement: semicont.PartialPredictivePlacement, Migration: true, StagingFrac: 0.2},
		{Name: "predictive", Placement: semicont.PredictivePlacement, Migration: true, StagingFrac: 0.2},
	}
	w := newSweeper(opts)
	refs := make([]seriesRef, len(policies))
	for i, p := range policies {
		pol := p
		refs[i] = w.series(pol.Name, thetas, func(theta float64) semicont.Scenario {
			return semicont.Scenario{System: sys, Policy: pol, Theta: theta}
		})
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var series []stats.Series
	for _, r := range refs {
		series = append(series, r.utilization())
	}
	id := "partial-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Partial predictive placement (%s system, Section 4.4)", sys.Name),
		Figures: []Figure{{
			ID:     id,
			Title:  fmt.Sprintf("Even vs. partial vs. perfect predictive placement, %s system (DRM + 20%% staging)", sys.Name),
			XLabel: "zipf-theta",
			YLabel: "utilization",
			Series: series,
			Notes:  "Expected shape: partial-predictive recovers most of the gap between even and perfect predictive at negative theta - identifying the popular videos suffices.",
		}},
	}, nil
}

// ChainLength is the ablation for the migration chain bound: the paper
// keeps chains at one migration per arrival and claims near-maximum
// utilization; longer chains should add little.
func ChainLength(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	w := newSweeper(opts)
	var refs []seriesRef
	for _, chain := range []int{1, 2, 3} {
		c := chain
		name := fmt.Sprintf("chain=%d", c)
		refs = append(refs, w.series(name, opts.Thetas, func(theta float64) semicont.Scenario {
			return semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:      name,
					Placement: semicont.EvenPlacement,
					Migration: true,
					MaxHops:   semicont.UnlimitedHops,
					MaxChain:  c,
				},
				Theta: theta,
			}
		}))
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var series []stats.Series
	for _, r := range refs {
		series = append(series, r.utilization())
	}
	id := "chain-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Migration chain-length ablation (%s system)", sys.Name),
		Figures: []Figure{{
			ID:     id,
			Title:  fmt.Sprintf("Utilization vs. theta for migration chain bounds, %s system (even placement, no staging)", sys.Name),
			XLabel: "zipf-theta",
			YLabel: "utilization",
			Series: series,
			Notes:  "Expected shape: chains longer than one add at most marginal utilization - supporting the paper's choice of chain length one.",
		}},
	}, nil
}

// SwitchDelay is the ablation for non-instantaneous stream switching:
// a migration blacks the stream out for the delay, which the client
// buffer must cover; with small buffers long switches suppress DRM.
func SwitchDelay(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	delays := []float64{0, 1, 5, 15, 60}
	w := newSweeper(opts)
	var refs []seriesRef
	for _, frac := range []float64{0.005, 0.02, 0.2} {
		f := frac
		name := fmt.Sprintf("%g%% buffer", f*100)
		refs = append(refs, w.series(name, delays, func(delay float64) semicont.Scenario {
			return semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:        name,
					Placement:   semicont.EvenPlacement,
					Migration:   true,
					StagingFrac: f,
					ReceiveCap:  semicont.DefaultReceiveCap,
					SwitchDelay: delay,
				},
				Theta: PriorStudiesTheta,
			}
		}))
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var series []stats.Series
	for _, r := range refs {
		series = append(series, r.utilization())
	}
	id := "switch-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Switch-delay ablation (%s system)", sys.Name),
		Figures: []Figure{{
			ID:     id,
			Title:  fmt.Sprintf("Utilization vs. migration switch delay, %s system (even placement + DRM, theta = 0.271)", sys.Name),
			XLabel: "switch-delay-s",
			YLabel: "utilization",
			Series: series,
			Notes:  "Expected shape: with generous buffers utilization is flat in the delay; with thin buffers long switches veto migrations and the DRM benefit evaporates - the paper's argument for why staging enables DRM.",
		}},
	}, nil
}

// Failover demonstrates the fault-tolerance use of DRM (Section 3.1):
// one server is killed mid-run; with migration most of its streams are
// rescued onto other replica holders, without it every stream dies.
func Failover(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	type variant struct {
		name string
		pol  semicont.Policy
	}
	variants := []variant{
		{"no-DRM", semicont.Policy{Name: "no-DRM", Placement: semicont.EvenPlacement}},
		{"DRM", semicont.Policy{Name: "DRM", Placement: semicont.EvenPlacement, Migration: true}},
		{"DRM+staging", semicont.PolicyP4()},
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Server failure at t = %g h (%s system, theta = %g, load 0.85)", opts.HorizonHours/2, sys.Name, PriorStudiesTheta),
		Headers: []string{"policy", "utilization", "rescued", "dropped", "rescue-rate"},
	}
	w := newSweeper(opts)
	refs := make([]cellRef, len(variants))
	for i, v := range variants {
		pol := v.pol
		refs[i] = w.rawCell("failover "+v.name, opts.Trials, func(trial int) (*semicont.Result, error) {
			return semicont.Run(semicont.Scenario{
				System:       sys,
				Policy:       pol,
				Theta:        PriorStudiesTheta,
				HorizonHours: opts.HorizonHours,
				// Leave headroom so rescues have somewhere to land; a
				// saturated cluster cannot absorb a dead server's work.
				LoadFactor:  0.85,
				Seed:        opts.Seed + uint64(trial)*7919,
				FailServer:  0,
				FailAtHours: opts.HorizonHours / 2,
				Audit:       opts.Audit,
			})
		})
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	for i, v := range variants {
		util, rescued, dropped := stats.Sample{}, stats.Sample{}, stats.Sample{}
		for _, res := range refs[i].results() {
			util.Add(res.Utilization)
			rescued.Add(float64(res.RescuedStreams))
			dropped.Add(float64(res.DroppedStreams))
		}
		rate := 0.0
		if tot := rescued.Mean() + dropped.Mean(); tot > 0 {
			rate = rescued.Mean() / tot
		}
		tbl.AddRow(v.name,
			fmt.Sprintf("%.4f ±%.4f", util.Mean(), util.CI95()),
			fmt.Sprintf("%.1f", rescued.Mean()),
			fmt.Sprintf("%.1f", dropped.Mean()),
			fmt.Sprintf("%.2f", rate))
		opts.Progress("  failover %s: util=%.4f rescued=%.1f dropped=%.1f", v.name, util.Mean(), rescued.Mean(), dropped.Mean())
	}
	return &Output{
		ID:     "fail-" + sys.Name,
		Title:  fmt.Sprintf("Failure rescue via DRM (%s system)", sys.Name),
		Tables: []*report.Table{tbl},
	}, nil
}

// gbString formats Mb as GB for the parameter table.
func gbString(mb float64) string {
	return fmt.Sprintf("%.0f GB", mb/units.MbPerGB)
}

package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/faults"
	"semicont/internal/stats"
)

// The `*-large` experiment family: hundreds of servers and 10^6–10^7
// requests per trial at the paper-default horizon, reported through the
// streaming metrics layer. The paper's evaluation stops at mean
// bandwidth utilization; the staging/DRM mechanisms, however, live or
// die on tail behavior — a burst EFTF absorbs shows up in wait/glitch
// percentiles, not means — so these experiments report p50/p95/p99 from
// the O(1)-memory quantile sketches instead of retaining per-request
// state.
const (
	// scaleServers sizes the family's cluster: 200 × 300 Mb/s servers
	// calibrate to ≈60,000 requests per simulated hour, so the default
	// 100-hour horizon is ~6×10^6 requests per trial.
	scaleServers = 200

	// scaleAuditSample is the snapshot-audit sampling rate for the
	// family. A full snapshot is linear in cluster size, so auditing
	// every event of a 200-server, 10^6-event run costs ~10^9 checks;
	// every 512th keeps audited large runs feasible while the always-on
	// stateful taps keep the auditor's models exact.
	scaleAuditSample = 512
)

// scaleSeries submits one curve of the family: series plus the
// per-request distributions and, when audited, snapshot sampling.
func (w *sweeper) scaleSeries(name string, xs []float64, mk func(x float64) semicont.Scenario) seriesRef {
	return w.series(name, xs, func(x float64) semicont.Scenario {
		sc := mk(x)
		sc.Stats = true
		if w.opts.Audit {
			sc.AuditSample = scaleAuditSample
		}
		return sc
	})
}

// ScaleDist measures admission-delay distributions at cluster scale:
// wait and retry-sojourn quantiles as offered load sweeps through
// saturation on a 200-server cluster with the full P4-style policy plus
// a bounded admission retry queue. Denial rate rides along for context.
func ScaleDist(opts Options) (*Output, error) {
	opts = opts.withDefaults()
	sys := semicont.ScaleSystem(scaleServers)
	loads := []float64{0.9, 1.0, 1.1}
	w := newSweeper(opts)
	// The curve takes its rate figure's name; dist names the quantile
	// series itself.
	ref := w.scaleSeries("denial", loads, func(load float64) semicont.Scenario {
		return semicont.Scenario{
			System: sys,
			Policy: semicont.Policy{
				Name:        "scale-p4-retry",
				Placement:   semicont.EvenPlacement,
				StagingFrac: 0.2,
				ReceiveCap:  semicont.DefaultReceiveCap,
				Migration:   true,
				MaxHops:     semicont.UnlimitedHops,
				MaxChain:    1,
				RetryQueue:  true,
			},
			Theta:      PriorStudiesTheta,
			LoadFactor: load,
		}
	})
	if err := w.wait(); err != nil {
		return nil, err
	}
	wait := ref.dist("wait", func(d *semicont.DistStats) *stats.Sketch { return &d.Wait })
	sojourn := ref.dist("retry sojourn", func(d *semicont.DistStats) *stats.Sketch { return &d.RetrySojourn })
	denial := ref.ratio(func(r *semicont.Result) (int64, int64) { return r.Rejected + r.Reneged, r.Arrivals })
	return &Output{
		ID:    "scale-large",
		Title: fmt.Sprintf("Scale: admission-delay quantiles vs offered load (%d-server cluster)", scaleServers),
		Figures: []Figure{
			{
				ID:     "scale-large-delay",
				Title:  fmt.Sprintf("Admission wait and retry sojourn vs offered load, %d servers (mean-of-trial-medians ± CI95; p50/p95/p99 from trial-merged sketches)", scaleServers),
				XLabel: "offered-load",
				YLabel: "seconds",
				Series: []stats.Series{wait, sojourn},
				Notes:  "Expected shape: wait p50 stays 0 below saturation (immediate admissions dominate) while p95/p99 grow with load as the retry queue fills; sojourn quantiles bound the queueing delay by the retry patience.",
			},
			{
				ID:     "scale-large-denial",
				Title:  fmt.Sprintf("Denial rate (rejected + reneged per arrival) vs offered load, %d servers", scaleServers),
				XLabel: "offered-load",
				YLabel: "denial-rate",
				Series: []stats.Series{denial},
				Notes:  "Context for the delay quantiles: beyond saturation the queue saturates too and the excess load converts to denials.",
			},
		},
	}, nil
}

// ScaleFaults measures viewer-visible fault behavior at cluster scale:
// glitch, degraded-park, and per-stream migration quantiles as the
// per-server MTBF sweeps from frequent to rare failures under the full
// fault-tolerance stack (DRM rescue, retry queue, degraded playback).
func ScaleFaults(opts Options) (*Output, error) {
	opts = opts.withDefaults()
	sys := semicont.ScaleSystem(scaleServers)
	mtbfs := []float64{4, 8, 16}
	w := newSweeper(opts)
	ref := w.scaleSeries("scale-faults", mtbfs, func(mtbf float64) semicont.Scenario {
		return semicont.Scenario{
			System: sys,
			Policy: semicont.Policy{
				Name:             "scale-faulttol",
				Placement:        semicont.EvenPlacement,
				StagingFrac:      0.2,
				ReceiveCap:       semicont.DefaultReceiveCap,
				Migration:        true,
				MaxHops:          semicont.UnlimitedHops,
				MaxChain:         1,
				RetryQueue:       true,
				DegradedPlayback: true,
			},
			Theta:      PriorStudiesTheta,
			LoadFactor: 0.85,
			Faults:     faults.Config{MTBFHours: mtbf, MTTRHours: 0.5},
		}
	})
	if err := w.wait(); err != nil {
		return nil, err
	}
	glitch := ref.dist("glitch", func(d *semicont.DistStats) *stats.Sketch { return &d.Glitch })
	park := ref.dist("park", func(d *semicont.DistStats) *stats.Sketch { return &d.Park })
	hops := ref.dist("migrations", func(d *semicont.DistStats) *stats.Sketch { return &d.Migrations })
	return &Output{
		ID:    "faults-large",
		Title: fmt.Sprintf("Scale: fault-behavior quantiles vs MTBF (%d-server cluster, MTTR 0.5 h, load 0.85)", scaleServers),
		Figures: []Figure{
			{
				ID:     "faults-large-glitch",
				Title:  fmt.Sprintf("Glitch duration quantiles vs MTBF, %d servers", scaleServers),
				XLabel: "mtbf-hours",
				YLabel: "seconds",
				Series: []stats.Series{glitch, park},
				Notes:  "Expected shape: both fall as failures rarefy. Park p99 approaches the staging buffer's playback depth — a parked stream survives at most its buffered seconds.",
			},
			{
				ID:     "faults-large-migrations",
				Title:  fmt.Sprintf("Per-stream migration-count quantiles vs MTBF, %d servers", scaleServers),
				XLabel: "mtbf-hours",
				YLabel: "migrations-per-stream",
				Series: []stats.Series{hops},
				Notes:  "Expected shape: p50 stays 0 (most streams never move); the tail counts rescue chains under churn and shrinks as MTBF grows.",
			},
		},
	}, nil
}

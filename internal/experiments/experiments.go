// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (plus the extension and ablation
// studies listed in DESIGN.md). Each experiment is a pure function of
// its Options, returning figures (named series over a swept x-axis) and
// tables ready for rendering by internal/report or cmd/paperfigs.
package experiments

import (
	"semicont"
	"semicont/internal/report"
	"semicont/internal/stats"
	"semicont/internal/sweep"
)

// Options scale an experiment. The zero value is filled with practical
// defaults; pass PaperScale for the paper's full 1000 h × 5 trials.
type Options struct {
	// HorizonHours per trial. Default 100 (utilization estimates are
	// stable well before the paper's 1000; see EXPERIMENTS.md).
	HorizonHours float64
	// Trials per data point. Default 5, as in the paper.
	Trials int
	// Seed for the whole experiment; every (point, trial) derives its
	// own stream.
	Seed uint64
	// Thetas overrides the default θ sweep where applicable.
	Thetas []float64
	// Progress, when non-nil, receives one line per materialized
	// figure point (series, metric and x) — long sweeps report where
	// they are.
	Progress func(format string, args ...any)
	// Audit attaches the invariant auditor to every scenario run (see
	// Scenario.Audit). The registry test runs the whole suite with it
	// on; any violation fails the experiment with a structured error.
	Audit bool
	// Pool, when non-nil, bounds the concurrency of the experiment's
	// flattened (cell × trial) job matrix; nil gets a private
	// GOMAXPROCS-sized pool per experiment. paperfigs shares one pool
	// across every experiment it runs. Results are byte-identical at any
	// worker count.
	Pool *sweep.Pool
}

func (o Options) withDefaults() Options {
	if o.HorizonHours == 0 {
		o.HorizonHours = 100
	}
	if o.Trials == 0 {
		o.Trials = semicont.PaperTrials
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Thetas == nil {
		o.Thetas = DefaultThetaSweep()
	}
	if o.Progress == nil {
		o.Progress = func(string, ...any) {}
	}
	return o
}

// PaperScale returns options matching the paper's experimental design:
// 1000-hour trials, five per point.
func PaperScale() Options {
	return Options{HorizonHours: semicont.PaperHorizonHours, Trials: semicont.PaperTrials}
}

// DefaultThetaSweep returns the θ grid of the paper's figures,
// −1.5 … 1 in steps of 0.25.
func DefaultThetaSweep() []float64 {
	var ts []float64
	for t := -1.5; t <= 1.0001; t += 0.25 {
		ts = append(ts, t)
	}
	return ts
}

// Figure is one plot: named curves over a shared x-axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []stats.Series
	Notes  string
}

// Output is everything one experiment produces.
type Output struct {
	ID      string
	Title   string
	Figures []Figure
	Tables  []*report.Table
}

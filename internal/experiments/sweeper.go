package experiments

import (
	"errors"
	"fmt"
	"slices"

	"semicont"
	"semicont/internal/stats"
	"semicont/internal/sweep"
)

// sweeper flattens one experiment's full (cell × trial) matrix onto a
// single worker pool. Experiments submit every curve up front (series),
// then wait once, then materialize figures from the in-order results —
// so all trials of all cells drain the pool together instead of five
// trials at a time per data point.
//
// Determinism: results land in slots fixed at submission and are
// materialized in submission order; progress lines and error selection
// follow the same order a serial loop would produce. Output is
// byte-identical to the serial path at any worker count.
type sweeper struct {
	opts   Options
	grid   *sweep.Grid[*semicont.Result]
	labels []string // labels[cell] names the cell in errors
	cells  [][]*semicont.Result
	subErr error // first submission error, reported by wait
}

func newSweeper(opts Options) *sweeper {
	return &sweeper{opts: opts, grid: sweep.NewGrid[*semicont.Result](opts.Pool)}
}

// cellRef is a handle to one submitted cell; its results become
// available after wait.
type cellRef struct {
	w   *sweeper
	idx int
}

func (c cellRef) results() []*semicont.Result { return c.w.cells[c.idx] }

// wait drains the grid. The first failure in (cell, trial) submission
// order comes back wrapped with its cell's label — the same error a
// serial loop would have stopped at.
func (w *sweeper) wait() error {
	if w.subErr != nil {
		return w.subErr
	}
	cells, err := w.grid.Wait()
	if err != nil {
		var ce *sweep.CellError
		if errors.As(err, &ce) {
			return fmt.Errorf("experiments: %s: %w", w.labels[ce.Cell], ce.Err)
		}
		return err
	}
	w.cells = cells
	return nil
}

// seriesRef is a handle to one submitted curve: a scenario family over
// an x grid, materializable under any per-result measure after wait.
// A curve can be materialized several times; its cells run once.
type seriesRef struct {
	w     *sweeper
	name  string
	xs    []float64
	cells []cellRef
}

// series submits one curve's scenarios, one cell per x, applying the
// experiment-wide horizon, seed, and audit options. A failing cell's
// error is labelled "<name> at x=<x>".
func (w *sweeper) series(name string, xs []float64, mk func(x float64) semicont.Scenario) seriesRef {
	refs := make([]cellRef, len(xs))
	for i, x := range xs {
		if w.subErr != nil {
			break
		}
		sc := mk(x)
		sc.HorizonHours = w.opts.HorizonHours
		sc.Seed = w.opts.Seed
		sc.Audit = w.opts.Audit
		label := fmt.Sprintf("%s at x=%g", name, x)
		idx, err := semicont.SubmitTrials(w.grid, sc, w.opts.Trials)
		if err != nil {
			w.subErr = fmt.Errorf("experiments: %s: %w", label, err)
			break
		}
		w.labels = append(w.labels, label)
		refs[i] = cellRef{w: w, idx: idx}
	}
	return seriesRef{w: w, name: name, xs: xs, cells: refs}
}

// after returns s with head's points in front, under s's name, so
// curves that share cells (EdgeSweep's no-edge baseline) run them once.
func (s seriesRef) after(head seriesRef) seriesRef {
	s.xs = append(slices.Clip(head.xs), s.xs...)
	s.cells = append(slices.Clip(head.cells), s.cells...)
	return s
}

// points materializes one point per x under name and reports each on
// the progress line as "<curve> <measure> x=… value=…", so a curve read
// under several measures prints lines that say which is which. Every
// simulated figure point is built here.
func (s seriesRef) points(name, measure string, point func(x float64, trials []*semicont.Result) stats.Point) stats.Series {
	out := stats.Series{Name: name}
	for i, x := range s.xs {
		p := point(x, s.cells[i].results())
		out.Points = append(out.Points, p)
		s.w.opts.Progress("  %s %s x=%g value=%.4f ±%.4f", s.name, measure, x, p.Mean, p.CI95)
	}
	return out
}

// sample materializes the series under measure from one value per
// trial; a trial for which value reports false adds nothing to its
// point.
func (s seriesRef) sample(measure string, value func(*semicont.Result) (float64, bool)) stats.Series {
	return s.points(s.name, measure, func(x float64, trials []*semicont.Result) stats.Point {
		var smp stats.Sample
		for _, r := range trials {
			if v, ok := value(r); ok {
				smp.Add(v)
			}
		}
		return stats.FromSample(x, &smp)
	})
}

// metric materializes the series under a per-trial measure.
func (s seriesRef) metric(measure string, f func(*semicont.Result) float64) stats.Series {
	return s.sample(measure, func(r *semicont.Result) (float64, bool) { return f(r), true })
}

// ratio materializes a per-trial rate num/den. A trial whose
// denominator is 0 (no arrivals, no admissions) has no rate and is
// skipped rather than counted as 0.
func (s seriesRef) ratio(measure string, f func(*semicont.Result) (num, den int64)) stats.Series {
	return s.sample(measure, func(r *semicont.Result) (float64, bool) {
		num, den := f(r)
		return float64(num) / float64(den), den != 0
	})
}

// utilization materializes the paper's headline metric.
func (s seriesRef) utilization() stats.Series {
	return s.metric("utilization", func(r *semicont.Result) float64 { return r.Utilization })
}

// dist materializes one distribution channel under name: each point is
// the mean/CI95 of the per-trial medians (trial-to-trial spread of the
// median), with the trial-merged sketch's p50/p95/p99 attached as
// quantile columns. Trials run without Stats carry no distributions
// and add nothing.
func (s seriesRef) dist(name string, pick func(*semicont.DistStats) *stats.Sketch) stats.Series {
	return s.points(name, name, func(x float64, trials []*semicont.Result) stats.Point {
		var med stats.Sample
		merged := new(semicont.DistStats)
		for _, r := range trials {
			if r.Dist == nil {
				continue
			}
			med.Add(pick(r.Dist).Quantile(0.5))
			merged.Merge(r.Dist)
		}
		p := stats.FromSample(x, &med)
		q := pick(merged).Summary()
		p.Q = &q
		return p
	})
}

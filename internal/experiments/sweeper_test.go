package experiments

import (
	"fmt"
	"testing"

	"semicont"
)

// cannedSeries returns a one-point curve named name whose trials
// returned results, as wait leaves a submitted curve.
func cannedSeries(opts Options, name string, results ...*semicont.Result) seriesRef {
	w := newSweeper(opts.withDefaults())
	w.cells = [][]*semicont.Result{results}
	return seriesRef{w: w, name: name, xs: []float64{1}, cells: []cellRef{{w: w, idx: 0}}}
}

// TestRatioSkipsZeroDenominator pins the rate materializer's guard: a
// trial with no denominator (here, no arrivals) has no rate and adds
// nothing to its point, so the point's count and mean come from the
// other trials alone.
func TestRatioSkipsZeroDenominator(t *testing.T) {
	s := cannedSeries(Options{}, "denial",
		&semicont.Result{Rejected: 1, Arrivals: 4},
		&semicont.Result{Rejected: 0, Arrivals: 0},
		&semicont.Result{Rejected: 3, Arrivals: 4},
	)
	got := s.ratio("denial-rate", func(r *semicont.Result) (int64, int64) { return r.Rejected, r.Arrivals })
	if len(got.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(got.Points))
	}
	if p := got.Points[0]; p.N != 2 || p.Mean != 0.5 || p.Min != 0.25 || p.Max != 0.75 {
		t.Errorf("point = %+v, want N=2 mean=0.5 over [0.25, 0.75]", p)
	}
}

// TestProgressNamesMeasure reads one curve under two measures that
// take the same value, so the two progress lines can differ only in
// what they name: each must say which measure it reports.
func TestProgressNamesMeasure(t *testing.T) {
	var lines []string
	opts := Options{Progress: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	s := cannedSeries(opts, "first-fit", &semicont.Result{Arrivals: 4, Utilization: 0})
	s.ratio("denial-rate", func(r *semicont.Result) (int64, int64) { return r.Rejected, r.Arrivals })
	s.utilization()
	if len(lines) != 2 {
		t.Fatalf("got %d progress lines, want 2: %q", len(lines), lines)
	}
	if lines[0] == lines[1] {
		t.Errorf("denial and utilization print the same progress line %q", lines[0])
	}
}

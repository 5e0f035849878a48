package experiments

import (
	"testing"

	"semicont"
)

// TestRatioSkipsZeroDenominator pins the rate materializer's guard: a
// trial with no denominator (here, no arrivals) has no rate and adds
// nothing to its point, so the point's count and mean come from the
// other trials alone.
func TestRatioSkipsZeroDenominator(t *testing.T) {
	trials := []*semicont.Result{
		{Rejected: 1, Arrivals: 4},
		{Rejected: 0, Arrivals: 0},
		{Rejected: 3, Arrivals: 4},
	}
	w := newSweeper(Options{}.withDefaults())
	c := w.rawCell("denial", len(trials), func(trial int) (*semicont.Result, error) { return trials[trial], nil })
	if err := w.wait(); err != nil {
		t.Fatal(err)
	}
	s := seriesRef{w: w, name: "denial", xs: []float64{1}, cells: []cellRef{c}}
	got := s.ratio(func(r *semicont.Result) (int64, int64) { return r.Rejected, r.Arrivals })
	if len(got.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(got.Points))
	}
	if p := got.Points[0]; p.N != 2 || p.Mean != 0.5 || p.Min != 0.25 || p.Max != 0.75 {
		t.Errorf("point = %+v, want N=2 mean=0.5 over [0.25, 0.75]", p)
	}
}

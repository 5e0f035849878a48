package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/stats"
)

// AdmissionSweep compares every admission selector on denial rate
// as offered load sweeps through saturation. All runs use the EFTF
// allocator, even placement, and 20% client staging with migration off,
// so the only degree of freedom is which feasible replica holder the
// controller assigns each arrival to — differences in the curves are
// pure placement quality. Utilization rides along as a second figure to
// show the selectors pay for their denial rates in opposite coin.
func AdmissionSweep(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	loads := []float64{0.7, 0.85, 1.0, 1.15, 1.3}
	names := semicont.SelectorNames()
	w := newSweeper(opts)
	refs := make([]seriesRef, len(names))
	for i, name := range names {
		refs[i] = w.series(name, loads, func(load float64) semicont.Scenario {
			return semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:        name,
					Placement:   semicont.EvenPlacement,
					StagingFrac: 0.2,
					ReceiveCap:  semicont.DefaultReceiveCap,
					Selector:    name,
				},
				Theta:      PriorStudiesTheta,
				LoadFactor: load,
			}
		})
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var denial, util []stats.Series
	for _, ref := range refs {
		denial = append(denial, ref.ratio(func(r *semicont.Result) (int64, int64) { return r.Rejected, r.Arrivals }))
		util = append(util, ref.utilization())
	}
	id := "admission-sweep-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Admission sweep: registered selectors vs offered load (%s system)", sys.Name),
		Figures: []Figure{
			{
				ID:     id + "-denial",
				Title:  fmt.Sprintf("Denial rate vs. offered load per admission selector, %s system (EFTF allocator, even placement, no DRM)", sys.Name),
				XLabel: "load-factor",
				YLabel: "denial-rate",
				Series: denial,
				Notes:  "Expected shape: all selectors converge below saturation; past load 1.0 first-fit concentrates streams on low-index servers and denies at least as often as least-loaded, which balances holders and tracks the feasible frontier. random-feasible lands between them.",
			},
			{
				ID:     id + "-util",
				Title:  fmt.Sprintf("Server utilization vs. offered load per admission selector, %s system", sys.Name),
				XLabel: "load-factor",
				YLabel: "utilization",
				Series: util,
				Notes:  "Expected shape: utilization rises toward the ceiling with load; selectors that deny more admit less work, so the denial ordering reappears inverted here.",
			},
		},
	}, nil
}

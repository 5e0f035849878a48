package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/stats"
)

// Allocators sweeps every bandwidth-allocation policy in
// AllocatorNames, selected by name through Policy.Allocator: the three
// minimum-flow workahead disciplines plus the intermittent-class
// heuristic, all under even placement and 20% staging. Unlike the
// eftf-small ablation, which toggles the Spare field, this experiment
// drives the Allocator spelling — a policy added to AllocatorNames
// joins the sweep without code changes here.
func Allocators(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	w := newSweeper(opts)
	var refs []seriesRef
	for _, name := range semicont.AllocatorNames() {
		alloc := name
		refs = append(refs, w.series(alloc, opts.Thetas, func(theta float64) semicont.Scenario {
			return semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:        alloc,
					Placement:   semicont.EvenPlacement,
					StagingFrac: 0.2,
					ReceiveCap:  semicont.DefaultReceiveCap,
					Allocator:   alloc,
				},
				Theta: theta,
			}
		}))
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var utils []stats.Series
	for _, r := range refs {
		utils = append(utils, r.utilization())
	}
	id := "alloc-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Registered bandwidth allocators (%s system)", sys.Name),
		Figures: []Figure{{
			ID:     id,
			Title:  fmt.Sprintf("Utilization by allocator registry name, %s system (even placement, 20%% staging)", sys.Name),
			XLabel: "zipf-theta",
			YLabel: "utilization",
			Series: utils,
			Notes:  "Expected shape: minflow-eftf at or above minflow-lftf and minflow-evensplit everywhere (the Theorem); intermittent matches or slightly exceeds them on utilization while risking playback glitches.",
		}},
	}, nil
}

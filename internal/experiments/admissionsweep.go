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
	cells := make(map[string][]cellRef, len(names))
	for _, name := range names {
		for _, load := range loads {
			sc := semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:        name,
					Placement:   semicont.EvenPlacement,
					StagingFrac: 0.2,
					ReceiveCap:  semicont.DefaultReceiveCap,
					Selector:    name,
				},
				Theta:        PriorStudiesTheta,
				HorizonHours: opts.HorizonHours,
				LoadFactor:   load,
				Seed:         opts.Seed,
				Audit:        opts.Audit,
			}
			label := fmt.Sprintf("admission-sweep %s at load=%g", name, load)
			cells[name] = append(cells[name], w.cell(label, sc))
		}
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var denial, util []stats.Series
	for _, name := range names {
		den := stats.Series{Name: name}
		ut := stats.Series{Name: name}
		for i, load := range loads {
			var dSmp, uSmp stats.Sample
			for _, r := range cells[name][i].results() {
				if r.Arrivals > 0 {
					dSmp.Add(float64(r.Rejected) / float64(r.Arrivals))
				}
				uSmp.Add(r.Utilization)
			}
			den.Points = append(den.Points, stats.FromSample(load, &dSmp))
			ut.Points = append(ut.Points, stats.FromSample(load, &uSmp))
			opts.Progress("  admission-sweep %s load=%g denial=%.4f util=%.4f",
				name, load, dSmp.Mean(), uSmp.Mean())
		}
		denial, util = append(denial, den), append(util, ut)
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

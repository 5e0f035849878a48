package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/faults"
	"semicont/internal/stats"
)

// FaultSweep measures graceful degradation under stochastic server
// churn: the intermittent scheduler and the three minimum-flow
// workahead disciplines each run the full fault-tolerance stack (DRM
// rescue, bounded admission retry queue, degraded-mode playback) while
// the per-server MTBF sweeps from
// frequent to rare failures at a fixed one-hour MTTR. Three views of
// the same runs come out: the denial rate (rejections plus reneged
// retries over arrivals), the drop rate (streams killed mid-play per
// admission), and the glitch rate (playback interruptions per
// admission — degraded-mode buffer dry-outs plus intermittent-class
// glitches). Load is held at 0.85 so rescues and retries have
// headroom, matching the failover experiment.
func FaultSweep(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	mtbfs := []float64{5, 10, 20, 40, 80}
	schedulers := []struct {
		name         string
		intermittent bool
		spare        semicont.SpareKind
	}{
		{"intermittent", true, semicont.EFTFSpare},
		{"minflow-eftf", false, semicont.EFTFSpare},
		{"minflow-evensplit", false, semicont.EvenSplitSpare},
		{"minflow-lftf", false, semicont.LFTFSpare},
	}
	w := newSweeper(opts)
	refs := make([]seriesRef, len(schedulers))
	for i, sch := range schedulers {
		refs[i] = w.series(sch.name, mtbfs, func(mtbf float64) semicont.Scenario {
			return semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:             sch.name,
					Placement:        semicont.EvenPlacement,
					StagingFrac:      0.2,
					ReceiveCap:       semicont.DefaultReceiveCap,
					Intermittent:     sch.intermittent,
					Spare:            sch.spare,
					Migration:        true,
					MaxHops:          semicont.UnlimitedHops,
					MaxChain:         1,
					RetryQueue:       true,
					DegradedPlayback: true,
				},
				Theta:      PriorStudiesTheta,
				LoadFactor: 0.85,
				Faults:     faults.Config{MTBFHours: mtbf, MTTRHours: 1},
			}
		})
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var denial, drops, glitches []stats.Series
	for _, ref := range refs {
		denial = append(denial, ref.ratio("denial-rate", func(r *semicont.Result) (int64, int64) { return r.Rejected + r.Reneged, r.Arrivals }))
		drops = append(drops, ref.ratio("drop-rate", func(r *semicont.Result) (int64, int64) { return r.DroppedStreams, r.Accepted }))
		glitches = append(glitches, ref.ratio("glitch-rate", glitchRate))
	}
	id := "fault-sweep-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Fault sweep: graceful degradation under server churn (%s system)", sys.Name),
		Figures: []Figure{
			{
				ID:     id + "-denial",
				Title:  fmt.Sprintf("Denial rate (rejected + reneged per arrival) vs. MTBF, %s system (MTTR 1 h, load 0.85)", sys.Name),
				XLabel: "mtbf-hours",
				YLabel: "denial-rate",
				Series: denial,
				Notes:  "Expected shape: monotone fall as failures rarefy; the retry queue converts transient outages into delayed admissions rather than outright rejections.",
			},
			{
				ID:     id + "-drop",
				Title:  fmt.Sprintf("Drop rate (streams killed mid-play per admission) vs. MTBF, %s system", sys.Name),
				XLabel: "mtbf-hours",
				YLabel: "drop-rate",
				Series: drops,
				Notes:  "Expected shape: falls with MTBF. Workahead disciplines park failed streams on buffered data and reconnect after recovery, so eftf sustains fewer drops than evensplit at equal MTBF.",
			},
			{
				ID:     id + "-glitch",
				Title:  fmt.Sprintf("Glitch rate (interruptions per admission) vs. MTBF, %s system", sys.Name),
				XLabel: "mtbf-hours",
				YLabel: "glitch-rate",
				Series: glitches,
				Notes:  "Expected shape: falls with MTBF. EFTF front-loads workahead into the emptiest buffers, so parked streams ride out longer outages than under even-split; intermittent adds its scheduling glitches on top.",
			},
		},
	}, nil
}

// glitchRate is playback interruptions per admission: degraded-mode
// buffer dry-outs plus intermittent-scheduling glitches.
func glitchRate(r *semicont.Result) (int64, int64) {
	return r.DegradedGlitches + r.GlitchedStreams, r.Accepted
}

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
	cells := make(map[string][]cellRef, len(schedulers))
	for _, sch := range schedulers {
		for _, mtbf := range mtbfs {
			sc := semicont.Scenario{
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
				Theta:        PriorStudiesTheta,
				HorizonHours: opts.HorizonHours,
				LoadFactor:   0.85,
				Seed:         opts.Seed,
				Faults:       faults.Config{MTBFHours: mtbf, MTTRHours: 1},
				Audit:        opts.Audit,
			}
			label := fmt.Sprintf("fault-sweep %s at mtbf=%g", sch.name, mtbf)
			cells[sch.name] = append(cells[sch.name], w.cell(label, sc))
		}
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var denial, drops, glitches []stats.Series
	for _, sch := range schedulers {
		name := sch.name
		den := stats.Series{Name: name}
		drp := stats.Series{Name: name}
		gl := stats.Series{Name: name}
		for i, mtbf := range mtbfs {
			var dSmp, drSmp, gSmp stats.Sample
			for _, r := range cells[name][i].results() {
				if r.Arrivals > 0 {
					dSmp.Add(float64(r.Rejected+r.Reneged) / float64(r.Arrivals))
				}
				if r.Accepted > 0 {
					drSmp.Add(float64(r.DroppedStreams) / float64(r.Accepted))
					gSmp.Add(float64(r.DegradedGlitches+r.GlitchedStreams) / float64(r.Accepted))
				}
			}
			den.Points = append(den.Points, stats.FromSample(mtbf, &dSmp))
			drp.Points = append(drp.Points, stats.FromSample(mtbf, &drSmp))
			gl.Points = append(gl.Points, stats.FromSample(mtbf, &gSmp))
			opts.Progress("  fault-sweep %s mtbf=%g denial=%.4f drop=%.4f glitch=%.4f",
				name, mtbf, dSmp.Mean(), drSmp.Mean(), gSmp.Mean())
		}
		denial, drops, glitches = append(denial, den), append(drops, drp), append(glitches, gl)
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

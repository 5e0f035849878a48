package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/faults"
	"semicont/internal/stats"
	"semicont/internal/workload"
)

// OverloadSweep measures class-based load shedding under a flash crowd
// layered on background fault churn. The arrival stream splits into a
// premium tier (25% of traffic, patient retries) and a standard tier
// (75%); a flash-crowd window multiplies the aggregate rate by the
// burst factor for 30% of the horizon, concentrating the surge on one
// video. Each burst factor runs once with shedding disabled and once
// per shed watermark, so the figures show what the watermark buys: with
// shedding off, the surge denies both classes alike; with shedding on,
// standard arrivals are turned away at the door while premium denial
// stays near its no-surge baseline. Dynamic replication runs in every
// configuration so the hot flash video gains copies instead of pinning
// denial to its initial placement. Light server churn (failures plus
// half-rate brownouts) runs underneath so the glitch figure has
// content and the audited smoke run exercises faults and overload
// together.
func OverloadSweep(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	bursts := []float64{1, 1.5, 2, 3}
	sheds := []struct {
		name      string
		watermark float64
	}{
		{"shed-off", 0},
		{"wm=0.75", 0.75},
		{"wm=0.9", 0.9},
	}
	horizonSec := opts.HorizonHours * 3600
	w := newSweeper(opts)
	refs := make([]seriesRef, len(sheds))
	for i, sh := range sheds {
		refs[i] = w.series(sh.name, bursts, func(burst float64) semicont.Scenario {
			var curve workload.Curve
			if burst > 1 {
				curve = workload.Curve{
					FlashAt:       0.3 * horizonSec,
					FlashDuration: 0.3 * horizonSec,
					FlashFactor:   burst,
					FlashVideo:    0,
				}
			}
			return semicont.Scenario{
				System: sys,
				Policy: semicont.Policy{
					Name:             sh.name,
					Placement:        semicont.EvenPlacement,
					StagingFrac:      0.2,
					ReceiveCap:       semicont.DefaultReceiveCap,
					Migration:        true,
					Replicate:        true,
					MaxHops:          semicont.UnlimitedHops,
					MaxChain:         1,
					RetryQueue:       true,
					DegradedPlayback: true,
					Classes: []semicont.TrafficClass{
						{Name: "premium", Share: 1, RetryPatienceSec: 600},
						{Name: "standard", Share: 3},
					},
					ShedWatermark: sh.watermark,
				},
				Theta:      PriorStudiesTheta,
				LoadFactor: 0.85,
				Faults: faults.Config{
					MTBFHours: 40, MTTRHours: 1,
					BrownoutMTBFHours: 30, BrownoutMTTRHours: 2, BrownoutFraction: 0.5,
				},
				Curve: curve,
			}
		})
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	denialRate := func(class int) func(*semicont.Result) (int64, int64) {
		return func(r *semicont.Result) (int64, int64) {
			return r.ClassRejected[class] + r.ClassReneged[class], r.ClassArrivals[class]
		}
	}
	var premium, standard, glitches []stats.Series
	for _, ref := range refs {
		premium = append(premium, ref.ratio(denialRate(0)))
		standard = append(standard, ref.ratio(denialRate(1)))
		glitches = append(glitches, ref.ratio(glitchRate))
	}
	id := "overload-sweep-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Overload sweep: class-based shedding through a flash crowd (%s system)", sys.Name),
		Figures: []Figure{
			{
				ID:     id + "-premium-denial",
				Title:  fmt.Sprintf("Premium denial rate vs. flash-crowd burst factor, %s system (load 0.85, churn MTBF 40 h)", sys.Name),
				XLabel: "burst-factor",
				YLabel: "denial-rate",
				Series: premium,
				Notes:  "Expected shape: without shedding premium denial climbs with the burst as the surge exhausts the cluster; with shedding the standard tier absorbs the cuts and premium denial stays near its burst=1 baseline.",
			},
			{
				ID:     id + "-standard-denial",
				Title:  fmt.Sprintf("Standard denial rate vs. flash-crowd burst factor, %s system", sys.Name),
				XLabel: "burst-factor",
				YLabel: "denial-rate",
				Series: standard,
				Notes:  "Expected shape: rises with the burst everywhere; under shedding it rises faster and earlier (the watermark converts premium protection into standard rejections), with the lower watermark shedding more.",
			},
			{
				ID:     id + "-glitch",
				Title:  fmt.Sprintf("Glitch rate (interruptions per admission) vs. burst factor, %s system", sys.Name),
				XLabel: "burst-factor",
				YLabel: "glitch-rate",
				Series: glitches,
				Notes:  "Expected shape: shedding keeps admitted streams' glitch exposure roughly flat through the surge — fewer admissions fighting the same churned capacity — while shed-off admits into congestion and glitches more as the burst grows.",
			},
		},
	}, nil
}

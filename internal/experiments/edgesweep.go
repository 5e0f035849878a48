package experiments

import (
	"fmt"

	"semicont"
	"semicont/internal/stats"
)

// Edge-sweep grid. The prefix length (900 s × 3 Mb/s = 2700 Mb) covers
// 10–30-minute titles only partially, so both mechanisms stay live
// across the sweep: short titles are served entirely from the edge
// while long ones still need a cluster suffix stream that batch-prefix
// joins can share. The cache grid runs from nothing to every prefix
// cached (the small catalog's prefixes total ≈ 259 000 Mb).
const edgePrefixSec = 900

var (
	edgeCacheMbs = []float64{0, 32000, 96000, 260000}
	edgeWindows  = []float64{0, 300}
	edgeThetas   = []float64{-0.5, PriorStudiesTheta, 1}
)

// EdgeSweep measures what the edge/proxy tier buys at fixed cluster
// capacity: cluster egress and denial rate versus prefix-cache size,
// across Zipf skew and batching window. Every cell offers the same
// calibrated load (offered = capacity), so any egress the edge absorbs
// turns directly into admission headroom — the headline claim is that
// a modest prefix cache cuts cluster egress multiplicatively on hot
// titles and converts the savings into a lower denial rate. Cache size
// 0 is the shared no-edge baseline (one cell per θ; the window does
// not apply without the edge tier).
func EdgeSweep(sys semicont.System, opts Options) (*Output, error) {
	opts = opts.withDefaults()
	w := newSweeper(opts)
	var refs []seriesRef
	for _, theta := range edgeThetas {
		sc := semicont.Scenario{
			System: sys,
			Policy: semicont.Policy{
				Name:        "edge",
				Placement:   semicont.EvenPlacement,
				StagingFrac: 0.2,
				Migration:   true,
			},
			Theta: theta,
		}
		base := w.series(fmt.Sprintf("theta=%g no-edge", theta), edgeCacheMbs[:1],
			func(float64) semicont.Scenario { return sc })
		for _, window := range edgeWindows {
			name := fmt.Sprintf("theta=%g unicast", theta)
			if window > 0 {
				name = fmt.Sprintf("theta=%g batch=%gs", theta, window)
			}
			edge := w.series(name, edgeCacheMbs[1:], func(cacheMb float64) semicont.Scenario {
				esc := sc
				esc.Policy.EdgeNodes = 2
				esc.Policy.EdgePrefixSec = edgePrefixSec
				esc.Policy.EdgeCacheMb = cacheMb
				if window > 0 {
					esc.Policy.BatchPolicy = semicont.BatchPolicyBatchPrefix
					esc.Policy.BatchWindowSec = window
				}
				return esc
			})
			refs = append(refs, edge.after(base))
		}
	}
	if err := w.wait(); err != nil {
		return nil, err
	}
	var egressSeries, denialSeries []stats.Series
	for _, ref := range refs {
		egressSeries = append(egressSeries, ref.metric(func(r *semicont.Result) float64 {
			if r.EdgeHits > 0 {
				return r.ClusterEgressMb
			}
			return r.DeliveredMb // no-edge baseline: everything is cluster egress
		}))
		// A trial without arrivals counts as denial 0 here, not skipped
		// as ratio would.
		denialSeries = append(denialSeries, ref.metric(func(r *semicont.Result) float64 {
			if r.Arrivals == 0 {
				return 0
			}
			return float64(r.Rejected+r.Reneged) / float64(r.Arrivals)
		}))
	}
	id := "edge-sweep-" + sys.Name
	return &Output{
		ID:    id,
		Title: fmt.Sprintf("Edge sweep: prefix caching and multicast batching (%s system)", sys.Name),
		Figures: []Figure{
			{
				ID:     id + "-egress",
				Title:  fmt.Sprintf("Cluster egress (Mb) vs. prefix-cache size, %s system (prefix %d s, offered = capacity)", sys.Name, edgePrefixSec),
				XLabel: "cache-mb",
				YLabel: "cluster-egress-mb",
				Series: egressSeries,
				Notes:  "Expected shape: monotone fall as the cache grows; steeper under skew (small θ concentrates demand on the cached head) and steeper still with batching, which merges concurrent suffix streams the prefix playback time already overlaps.",
			},
			{
				ID:     id + "-denial",
				Title:  fmt.Sprintf("Denial rate (rejected + reneged per arrival) vs. prefix-cache size, %s system", sys.Name),
				XLabel: "cache-mb",
				YLabel: "denial-rate",
				Series: denialSeries,
				Notes:  "Expected shape: falls with cache size at fixed capacity — every Mb the edge serves is admission headroom for the suffixes the cluster still carries.",
			},
		},
	}, nil
}

package experiments

import (
	"fmt"
	"slices"

	"semicont"
)

// Entry names one runnable experiment.
type Entry struct {
	ID          string
	Description string
	Run         func(Options) (*Output, error)
}

// Registry returns every experiment in presentation order. IDs match
// the per-experiment index of DESIGN.md.
func Registry() []Entry {
	small, large := semicont.SmallSystem(), semicont.LargeSystem()
	bind := func(f func(semicont.System, Options) (*Output, error), sys semicont.System) func(Options) (*Output, error) {
		return func(o Options) (*Output, error) { return f(sys, o) }
	}
	return []Entry{
		{"t3", "Figure 3: system parameter table", func(Options) (*Output, error) { return TableFig3(), nil }},
		{"f4-large", "Figure 4 (left): DRM effect, large system", bind(Fig4, large)},
		{"f4-small", "Figure 4 (right): DRM effect, small system", bind(Fig4, small)},
		{"f5-large", "Figure 5 (left): client staging, large system", bind(Fig5, large)},
		{"f5-small", "Figure 5 (right): client staging, small system", bind(Fig5, small)},
		{"t6", "Figure 6: policy matrix P1-P8", func(Options) (*Output, error) { return TableFig6(), nil }},
		{"f7-large", "Figure 7 (left): policies P1-P8, large system", bind(Fig7, large)},
		{"f7-small", "Figure 7 (right): policies P1-P8, small system", bind(Fig7, small)},
		{"stage", "Staging-degree sweep (the 20% claim)", StagingSweep},
		{"svbr", "SVBR: simulation vs Erlang-B analysis", SVBR},
		{"analytic-small", "Cluster-level Erlang bracket vs simulation, small system", bind(ClusterAnalysis, small)},
		{"het", "Heterogeneity study (Section 4.6)", Heterogeneity},
		{"partial-large", "Partial predictive placement, large system", bind(PartialPredictive, large)},
		{"partial-small", "Partial predictive placement, small system", bind(PartialPredictive, small)},
		{"replication-small", "Extension: DRM vs dynamic replication, small system", bind(Replication, small)},
		{"replication-large", "Extension: DRM vs dynamic replication, large system", bind(Replication, large)},
		{"intermittent-small", "Ablation: intermittent vs minimum-flow scheduling, small system", bind(Intermittent, small)},
		{"clientmix-small", "Extension: heterogeneous client capabilities, small system", bind(ClientMix, small)},
		{"interactive-small", "Extension: viewer pause/resume interactivity, small system", bind(Interactivity, small)},
		{"patching-small", "Extension: multicast patching, small system", bind(Patching, small)},
		{"eftf-small", "Ablation: EFTF vs LFTF vs even-split workahead, small system", bind(SpareDisciplines, small)},
		{"chain-small", "Ablation: migration chain length, small system", bind(ChainLength, small)},
		{"switch-small", "Ablation: migration switch delay, small system", bind(SwitchDelay, small)},
		{"fail-small", "Fault tolerance: failure rescue via DRM, small system", bind(Failover, small)},
		{"fault-sweep-small", "Fault tolerance: denial/drop/glitch rates vs MTBF under server churn, small system", bind(FaultSweep, small)},
		{"overload-sweep-small", "Robustness: per-class denial and glitch rates vs flash-crowd burst under load shedding, small system", bind(OverloadSweep, small)},
		{"edge-sweep-small", "Extension: edge prefix caching and multicast batching — cluster egress and denial rate vs cache size, small system", bind(EdgeSweep, small)},
		{"admission-sweep-small", "Ablation: registered admission selectors vs offered load, small system", bind(AdmissionSweep, small)},
		{"scale-large", "Scale: admission-delay quantiles vs offered load, 200-server cluster, 10^6-request trials", ScaleDist},
		{"faults-large", "Scale: glitch/park/migration quantiles vs MTBF under churn, 200-server cluster", ScaleFaults},
	}
}

// Find returns the registry entry with the given id.
func Find(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := IDs()
	return Entry{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	reg := Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	slices.Sort(ids)
	return ids
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"semicont"
	"semicont/internal/experiments"
	"semicont/internal/faults"
	"semicont/internal/rng"
	"semicont/internal/stats"
	"semicont/internal/sweep"
)

// workload is one benchmark input: a batch simulation job of fixed
// size whose host throughput the benchmark measures. A round runs its
// parts, each timed on its own. A single-run workload's parts are
// independent simulations on their own seed streams, so a round's cost
// averages over many catalogs and placements instead of hanging on one
// draw; scenario builds one part's run from that part's seed at the
// given scale (1 = full size). scenario is nil for the Fig. 7 sweep,
// whose parts are its θ columns, each one experiments.Fig7 call. Short
// parts let the reference kernel run between them (reference.go) follow
// the host's speed closely. doc.go says why each workload exists.
type workload struct {
	name     string
	parts    int
	scenario func(seed uint64, scale float64) semicont.Scenario
}

// scale multiplies the size of every workload a child measures. It is 1
// in the binary, where outputs are checked against the recorded digests;
// the tests shrink it.
var scale = 1.0

// sweepWorkers is the Fig. 7 sweep's pool size: the benchmark loads at
// most two threads.
const sweepWorkers = 2

// Fig. 7 sweep size: 8 policies × 11 θ × fig7Trials runs of fig7Hours.
const (
	fig7Hours  = 10
	fig7Trials = 5
)

var workloads = []workload{
	{name: "p4-large", parts: 12, scenario: func(seed uint64, scale float64) semicont.Scenario {
		return semicont.Scenario{
			System:       semicont.LargeSystem(),
			Policy:       semicont.PolicyP4(),
			Theta:        0.271,
			LoadFactor:   1,
			HorizonHours: 25 * scale,
			Seed:         seed,
		}
	}},
	{name: "edge-skew", parts: 40, scenario: func(seed uint64, scale float64) semicont.Scenario {
		return semicont.Scenario{
			System: semicont.SmallSystem(),
			Policy: semicont.Policy{
				Name:            "edge-skew",
				Placement:       semicont.EvenPlacement,
				StagingFrac:     0.2,
				Migration:       true,
				EdgeNodes:       2,
				EdgePrefixSec:   900,
				EdgeCacheMb:     96000,
				EdgeCachePolicy: semicont.EdgeCacheLRU,
				BatchPolicy:     semicont.BatchPolicyBatchPrefix,
				BatchWindowSec:  300,
			},
			Theta:        -0.5,
			LoadFactor:   2,
			HorizonHours: 62.5 * scale,
			Seed:         seed,
		}
	}},
	// The 200-server cell of scale_test.go's scaleCell, audited at the
	// scale family's sampling rate.
	{name: "scale-faulttol", parts: 5, scenario: func(seed uint64, scale float64) semicont.Scenario {
		return semicont.Scenario{
			System: semicont.ScaleSystem(200),
			Policy: semicont.Policy{
				Name:             "scale-faulttol",
				Placement:        semicont.EvenPlacement,
				StagingFrac:      0.2,
				ReceiveCap:       semicont.DefaultReceiveCap,
				Allocator:        semicont.AllocatorEFTF,
				Migration:        true,
				MaxHops:          semicont.UnlimitedHops,
				MaxChain:         1,
				RetryQueue:       true,
				DegradedPlayback: true,
			},
			Theta:        0.271,
			LoadFactor:   0.9,
			HorizonHours: 1 * scale,
			Seed:         seed,
			Stats:        true,
			Audit:        true,
			AuditSample:  512,
			Faults:       faults.Config{MTBFHours: 8, MTTRHours: 0.5},
		}
	}},
	{name: "f7-sweep", parts: len(experiments.DefaultThetaSweep())},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// partSeed derives part k's Scenario.Seed (or the sweep's Options.Seed)
// from the benchmark seed, so any -seed, 0 included, gives valid and
// distinct inputs.
func partSeed(seed uint64, k int) uint64 { return rng.DeriveSeed(seed, 0x766f6462, uint64(k)) } // "vodb"

func (w workload) isSweep() bool { return w.scenario == nil }

// workers is the size of the pool a part's jobs run on.
func (w workload) workers() int {
	if w.isSweep() {
		return sweepWorkers
	}
	return 1
}

// fig7Options sets up part k of the Fig. 7 sweep: its k-th θ column.
// Every column takes the seed of part 0, so that the parts together run
// exactly the jobs of one experiments.Fig7 call over every θ.
func fig7Options(seed uint64, k int, scale float64) experiments.Options {
	return experiments.Options{
		HorizonHours: fig7Hours * scale,
		Trials:       fig7Trials,
		Seed:         partSeed(seed, 0),
		Thetas:       experiments.DefaultThetaSweep()[k : k+1],
		Pool:         sweep.New(sweepWorkers),
	}
}

// jobs lists part k's simulation runs in submission order: its single
// scenario, or every (policy, trial) run of its Fig. 7 column exactly
// as experiments.Fig7 submits them.
func (w workload) jobs(seed uint64, k int, scale float64) []semicont.Scenario {
	if !w.isSweep() {
		return []semicont.Scenario{w.scenario(partSeed(seed, k), scale)}
	}
	opts := fig7Options(seed, k, scale)
	var out []semicont.Scenario
	for _, pol := range semicont.PaperPolicies() {
		sc := semicont.Scenario{
			System:       semicont.SmallSystem(),
			Policy:       pol,
			Theta:        opts.Thetas[0],
			HorizonHours: opts.HorizonHours,
			Seed:         opts.Seed,
		}
		for t := 0; t < opts.Trials; t++ {
			out = append(out, semicont.TrialScenario(sc, t))
		}
	}
	return out
}

// runPart runs part k through the program's own entry point —
// semicont.Run, or experiments.Fig7 on a two-worker pool — and returns
// the digest of its output.
func (w workload) runPart(seed uint64, k int, scale float64) (string, error) {
	if w.isSweep() {
		out, err := experiments.Fig7(semicont.SmallSystem(), fig7Options(seed, k, scale))
		if err != nil {
			return "", err
		}
		return digest(out.Figures[0].Series)
	}
	res, err := semicont.Run(w.scenario(partSeed(seed, k), scale))
	if err != nil {
		return "", err
	}
	return digest(canonical(res))
}

// assemble rebuilds part k's output from its jobs' results, given in
// job order, and returns its digest: equal to runPart's exactly when the
// staged runs reproduced the entry point bit for bit.
func (w workload) assemble(k int, results []*semicont.Result) (string, error) {
	if !w.isSweep() {
		return digest(canonical(results[0]))
	}
	// Fig7 averages each (policy, θ) cell's trials into one point.
	theta := experiments.DefaultThetaSweep()[k]
	var series []stats.Series
	for i, pol := range semicont.PaperPolicies() {
		var sample stats.Sample
		for _, r := range results[i*fig7Trials : (i+1)*fig7Trials] {
			sample.Add(r.Utilization)
		}
		series = append(series, stats.Series{Name: pol.Name, Points: []stats.Point{stats.FromSample(theta, &sample)}})
	}
	return digest(series)
}

// sketchSummary stands in for a stats.Sketch in a digest: the sketch's
// state is unexported, so its JSON form is empty.
type sketchSummary struct {
	Name          string
	N             uint64
	Min, Max      float64
	P50, P95, P99 float64
}

// canonical is the digested form of a single run's result.
func canonical(res *semicont.Result) any {
	doc := struct {
		Result *semicont.Result
		Dist   []sketchSummary `json:",omitempty"`
	}{Result: res}
	if res.Dist != nil {
		for _, c := range res.Dist.Channels() {
			q := c.Sketch.Summary()
			doc.Dist = append(doc.Dist, sketchSummary{c.Name, c.Sketch.N(), c.Sketch.Min(), c.Sketch.Max(), q.P50, q.P95, q.P99})
		}
	}
	return doc
}

// digest is the hex SHA-256 of v's JSON encoding. A round's digest is
// the digest of its parts' digests.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("vodbench: digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// countArrivals returns the number of requests jobs offer. The arrival
// stream of a run depends only on its catalog and calibrated rate, never
// on admission outcomes, so drawing each job's generator up to its
// horizon counts exactly the arrivals the engine will handle — the only
// way to count them for experiments.Fig7, which returns points, not
// results.
func countArrivals(jobs []semicont.Scenario) (int64, error) {
	var n int64
	for _, sc := range jobs {
		cat, err := generateCatalog(sc)
		if err != nil {
			return 0, err
		}
		_, gen, err := newGenerator(sc, cat)
		if err != nil {
			return 0, err
		}
		horizon := sc.HorizonHours * 3600
		for r := gen.Next(); r.Arrival < horizon; r = gen.Next() {
			n++
		}
	}
	return n, nil
}

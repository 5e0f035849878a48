package semicont

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"semicont/internal/faults"
)

// Golden equivalence fixtures: fixed-seed results for a scenario matrix
// spanning staging on/off × DRM hops × intermittent × patching (plus
// the extension mechanisms), captured from the pre-refactor allocation
// layer. The engine contract is bit-identical determinism — same seeds,
// same floats — so any allocator refactor must reproduce every field of
// every Result below exactly. Regenerate (only when a deliberate
// behavior change is made, with justification in the commit) with:
//
//	go test -run TestGoldenEquivalence -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_equiv.json from the current engine")

const goldenEquivPath = "testdata/golden_equiv.json"

type goldenEntry struct {
	Name   string
	Result Result
}

// goldenHorizonHours keeps each matrix cell fast while still processing
// tens of thousands of engine events.
const goldenHorizonHours = 2

// goldenMatrix returns the named scenario matrix. Every scenario uses
// the small system and a fixed seed so results are bit-reproducible.
func goldenMatrix() []struct {
	Name string
	Sc   Scenario
} {
	base := func(p Policy) Scenario {
		return Scenario{
			System:       SmallSystem(),
			Policy:       p,
			Theta:        0.271,
			HorizonHours: goldenHorizonHours,
			Seed:         7,
		}
	}
	drm := func(p Policy, hops, chain int) Policy {
		p.Migration, p.MaxHops, p.MaxChain = true, hops, chain
		return p
	}
	var m []struct {
		Name string
		Sc   Scenario
	}
	add := func(name string, sc Scenario) {
		m = append(m, struct {
			Name string
			Sc   Scenario
		}{name, sc})
	}

	// Staging off/on and the three spare disciplines.
	add("nostage", base(Policy{Name: "nostage"}))
	add("stage-eftf", base(Policy{Name: "stage-eftf", StagingFrac: 0.2}))
	add("stage-lftf", base(Policy{Name: "stage-lftf", StagingFrac: 0.2, Spare: LFTFSpare}))
	add("stage-evensplit", base(Policy{Name: "stage-evensplit", StagingFrac: 0.2, Spare: EvenSplitSpare}))

	// DRM hop/chain budgets, with and without staging.
	add("drm-nostage", base(drm(Policy{Name: "drm-nostage"}, 1, 1)))
	add("drm-hops1", base(drm(Policy{Name: "drm-hops1", StagingFrac: 0.2}, 1, 1)))
	add("drm-unlimited-chain2", base(drm(Policy{Name: "drm-unlimited-chain2", StagingFrac: 0.2}, UnlimitedHops, 2)))
	add("drm-switchdelay", base(drm(Policy{Name: "drm-switchdelay", StagingFrac: 0.2, SwitchDelay: 2}, UnlimitedHops, 1)))

	// Intermittent scheduling (over-subscription + glitch accounting).
	add("intermittent", base(drm(Policy{Name: "intermittent", StagingFrac: 0.2, Intermittent: true}, 1, 1)))
	add("intermittent-guard10", base(Policy{Name: "intermittent-guard10", StagingFrac: 0.3, Intermittent: true, ResumeGuard: 10}))

	// Patching (multicast taps pin streams; spare order interacts).
	add("patching", base(Policy{Name: "patching", StagingFrac: 0.2, BatchPolicy: BatchPolicyPatch, BatchWindowSec: 300}))
	add("patching-drm", base(drm(Policy{Name: "patching-drm", StagingFrac: 0.2, BatchPolicy: BatchPolicyPatch, BatchWindowSec: 600}, 1, 1)))

	// Extension mechanisms layered over the allocator.
	add("interactive", base(drm(Policy{Name: "interactive", StagingFrac: 0.2, PauseProb: 0.3, MinPauseSec: 30, MaxPauseSec: 300}, 1, 1)))
	add("replicate", base(drm(Policy{Name: "replicate", StagingFrac: 0.2, Replicate: true}, 1, 1)))
	add("clientmix", base(Policy{Name: "clientmix", ClientMix: []ClientClass{
		{Weight: 1, StagingFrac: 0.3, ReceiveCap: 30},
		{Weight: 2, StagingFrac: 0, ReceiveCap: 0},
	}}))

	// Controller seam: non-default admission selectors, and single moves
	// under unlimited hops. The default selector (least-loaded) is pinned
	// by every other cell; these pin the alternates, one of them audited
	// so the admission-feasible tap rides the fixture too.
	add("admission-firstfit", base(Policy{Name: "admission-firstfit", StagingFrac: 0.2, Selector: SelectorFirstFit}))
	admRand := base(drm(Policy{Name: "admission-random", StagingFrac: 0.2, Selector: SelectorRandomFeasible}, 1, 1))
	admRand.Audit = true
	add("admission-random", admRand)
	add("planner-direct", base(drm(Policy{Name: "planner-direct", StagingFrac: 0.2}, UnlimitedHops, 1)))

	// Failure rescue mid-run: one scripted failure.
	fail := base(drm(Policy{Name: "failover", StagingFrac: 0.2}, UnlimitedHops, 1))
	fail.Faults = faults.Config{Trace: []faults.Event{{AtHours: 1, Server: 2, Kind: faults.KindFail}}}
	add("failover", fail)

	// Stochastic failure/recovery churn with the full fault-tolerance
	// stack: retry queue, degraded-mode playback, and DRM rescue. Audit
	// is on so the fixture also pins the tap-instrumented path.
	churn := base(drm(Policy{
		Name: "fault-churn", StagingFrac: 0.2,
		RetryQueue: true, RetryPatienceSec: 120, RetryBackoffSec: 15,
		DegradedPlayback: true, DegradedRetrySec: 5,
	}, UnlimitedHops, 1))
	churn.Faults = faults.Config{MTBFHours: 1, MTTRHours: 0.2}
	churn.Audit = true
	add("fault-churn", churn)

	// Scripted cold-recovery trace: a wiped server rejoins with empty
	// storage and is rebuilt through dynamic replication.
	coldTrace := base(drm(Policy{
		Name: "fault-cold-trace", StagingFrac: 0.2, Replicate: true,
		DegradedPlayback: true, DegradedRetrySec: 5,
	}, 1, 1))
	coldTrace.Faults = faults.Config{Trace: []faults.Event{
		{AtHours: 0.25, Server: 1, Kind: faults.KindFail},
		{AtHours: 0.5, Server: 1, Kind: faults.KindRecover, Cold: true},
		{AtHours: 1.0, Server: 3, Kind: faults.KindFail},
		{AtHours: 1.4, Server: 3, Kind: faults.KindRecover},
	}}
	coldTrace.Audit = true
	add("fault-cold-trace", coldTrace)

	// Stochastic brownout churn interleaved with failures: the
	// three-state fault machine (up/down/dimmed), slot rescaling, and
	// the rescue → park → drop ladder over dimmed capacity, audited so
	// the effective-capacity rule rides the fixture.
	brown := base(drm(Policy{
		Name: "brownout-churn", StagingFrac: 0.2,
		RetryQueue: true, RetryPatienceSec: 120, RetryBackoffSec: 15,
		DegradedPlayback: true, DegradedRetrySec: 5,
	}, UnlimitedHops, 1))
	brown.Faults = faults.Config{
		MTBFHours: 2, MTTRHours: 0.2,
		BrownoutMTBFHours: 1, BrownoutMTTRHours: 0.3, BrownoutFraction: 0.5,
	}
	brown.Audit = true
	add("brownout-churn", brown)

	// Failure churn with viewer pauses and a switch delay: parked
	// streams pause and resume while they play from their buffers, and
	// reconnect through the switch-delay buffer test, audited.
	parkPause := base(drm(Policy{
		Name: "degraded-interactive", StagingFrac: 0.2,
		RetryQueue: true, RetryPatienceSec: 120, RetryBackoffSec: 15,
		DegradedPlayback: true, DegradedRetrySec: 5,
		PauseProb: 0.5, MinPauseSec: 30, MaxPauseSec: 300,
		SwitchDelay: 2,
	}, UnlimitedHops, 1))
	parkPause.Faults = faults.Config{MTBFHours: 1, MTTRHours: 0.2}
	parkPause.Audit = true
	add("degraded-interactive", parkPause)

	// Class-based load shedding through a flash crowd: two tiers, the
	// shed watermark, and the thinned arrival stream, audited so the
	// overload-shedding rule and per-class accounting ride the fixture.
	shed := base(drm(Policy{
		Name: "overload-shed", StagingFrac: 0.2,
		RetryQueue: true, RetryPatienceSec: 120, RetryBackoffSec: 15,
		Classes: []TrafficClass{
			{Name: "premium", Share: 1, RetryPatienceSec: 600},
			{Name: "standard", Share: 3},
		},
		ShedWatermark: 0.7,
	}, 1, 1))
	shed.Curve.FlashAt = 1800
	shed.Curve.FlashDuration = 3600
	shed.Curve.FlashFactor = 3
	shed.Audit = true
	add("overload-shed", shed)

	// Diurnal modulation stacked on a flash window with no classes: the
	// modulated arrival curve alone, pinning the thinning RNG stream.
	flash := base(Policy{Name: "flash-diurnal", StagingFrac: 0.2})
	flash.Curve.DiurnalAmp = 0.5
	flash.Curve.DiurnalPeriod = 3600
	flash.Curve.FlashAt = 900
	flash.Curve.FlashDuration = 1800
	flash.Curve.FlashFactor = 2
	flash.Curve.FlashVideo = 3
	add("flash-diurnal", flash)

	// Audited runs pin the instrumented allocation path (every feed
	// reported to the order taps) to the same results as the bare one.
	audited := base(PolicyP4())
	audited.Audit = true
	add("audited-p4", audited)
	auditedInt := base(drm(Policy{Name: "audited-intermittent", StagingFrac: 0.2, Intermittent: true}, 1, 1))
	auditedInt.Audit = true
	add("audited-intermittent", auditedInt)

	// Edge/proxy tier: prefix caching splits every hit into an
	// edge-served head and a cluster suffix stream with a nonzero start
	// offset. The bare cell pins the probe + suffix-admission path; the
	// batch cell adds batch-prefix joins (audited, so the edge-accounting
	// rule and the EdgeServe tap ride the fixture); the DRM cell pins
	// suffix streams crossing migration and the lru fill order.
	edgePol := Policy{
		Name: "edge-unicast", StagingFrac: 0.2,
		EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 90000,
	}
	add("edge-unicast", base(edgePol))
	edgeBatch := edgePol
	edgeBatch.Name = "edge-batch"
	edgeBatch.BatchPolicy = BatchPolicyBatchPrefix
	edgeBatch.BatchWindowSec = 300
	edgeBatchCell := base(edgeBatch)
	edgeBatchCell.Audit = true
	add("edge-batch", edgeBatchCell)
	edgeDRM := drm(Policy{
		Name: "edge-drm", StagingFrac: 0.2,
		EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 90000,
		EdgeCachePolicy: EdgeCacheLRU,
		BatchPolicy:     BatchPolicyBatchPrefix, BatchWindowSec: 300,
	}, 1, 1)
	add("edge-drm", base(edgeDRM))

	return m
}

// TestGoldenEquivalence runs the scenario matrix and demands that every
// Result field matches the checked-in fixture bit-for-bit. JSON float
// encoding uses the shortest round-trippable representation, so decoded
// fixtures compare exactly with ==. Each cell runs within runBudget, so
// an engine that never drains fails by the cell's name.
func TestGoldenEquivalence(t *testing.T) {
	matrix := goldenMatrix()

	got := make(map[string]Result, len(matrix)+3)
	for _, cell := range matrix {
		res, finished, err := runWithin(cell.Sc, runBudget)
		if !finished {
			// The abandoned run still holds a CPU: stop here.
			t.Fatalf("%s: no result within %v: the run does not drain", cell.Name, runBudget)
		}
		if err != nil {
			t.Fatalf("%s: %v", cell.Name, err)
		}
		got[cell.Name] = *res
	}
	// Multi-trial aggregation derives per-trial seeds; pin each trial.
	agg, err := RunTrials(goldenMatrix()[5].Sc, 3) // drm-hops1
	if err != nil {
		t.Fatalf("trials: %v", err)
	}
	for i, r := range agg.Results {
		got["drm-hops1-trial"+string(rune('0'+i))] = *r
	}

	if *updateGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		ordered := make([]goldenEntry, 0, len(names))
		for _, n := range names {
			ordered = append(ordered, goldenEntry{Name: n, Result: got[n]})
		}
		data, err := json.MarshalIndent(ordered, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenEquivPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEquivPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fixtures to %s", len(ordered), goldenEquivPath)
		return
	}

	data, err := os.ReadFile(goldenEquivPath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update-golden to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(want))
	for _, w := range want {
		seen[w.Name] = true
		g, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: fixture present but scenario missing from matrix", w.Name)
			continue
		}
		if g != w.Result {
			t.Errorf("%s: result diverged from fixture\n got %+v\nwant %+v", w.Name, g, w.Result)
		}
	}
	for n := range got {
		if !seen[n] {
			t.Errorf("%s: scenario has no fixture (run -update-golden)", n)
		}
	}
}

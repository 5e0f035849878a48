package semicont

import (
	"slices"
	"testing"
	"time"

	"semicont/internal/faults"
	"semicont/internal/workload"
)

// pairFeatures are single features, each layered onto PolicyP4 on the
// small system. TestFeaturePairs turns them on two at a time, applying
// the earlier entry first.
var pairFeatures = []struct {
	name string
	on   func(*Scenario)
}{
	{"no-staging", func(s *Scenario) { s.Policy.StagingFrac = 0 }},
	{"no-migration", func(s *Scenario) { s.Policy.Migration = false }},
	{"intermittent", func(s *Scenario) { s.Policy.Intermittent = true }},
	{"lftf", func(s *Scenario) { s.Policy.Spare = LFTFSpare }},
	{"even-split", func(s *Scenario) { s.Policy.Spare = EvenSplitSpare }},
	{"unlimited-hops", func(s *Scenario) { s.Policy.MaxHops = UnlimitedHops }},
	{"chain-3", func(s *Scenario) { s.Policy.MaxChain = 3 }},
	{"random-feasible", func(s *Scenario) { s.Policy.Selector = SelectorRandomFeasible }},
	{"switch-delay", func(s *Scenario) { s.Policy.SwitchDelay = 5 }},
	{"replication", func(s *Scenario) { s.Policy.Replicate = true }},
	{"batch-patch", func(s *Scenario) {
		s.Policy.BatchPolicy, s.Policy.BatchWindowSec = BatchPolicyPatch, 600
	}},
	{"edge", func(s *Scenario) {
		s.Policy.EdgeNodes, s.Policy.EdgePrefixSec, s.Policy.EdgeCacheMb = 2, 900, 90000
	}},
	{"batch-prefix", func(s *Scenario) {
		s.Policy.EdgeNodes, s.Policy.EdgePrefixSec, s.Policy.EdgeCacheMb = 2, 900, 90000
		s.Policy.EdgeCachePolicy = EdgeCacheLRU
		s.Policy.BatchPolicy, s.Policy.BatchWindowSec = BatchPolicyBatchPrefix, 300
	}},
	{"retry", func(s *Scenario) { s.Policy.RetryQueue = true }},
	{"degraded", func(s *Scenario) { s.Policy.DegradedPlayback = true }},
	{"pauses", func(s *Scenario) {
		s.Policy.PauseProb, s.Policy.MinPauseSec, s.Policy.MaxPauseSec = 0.3, 30, 300
	}},
	{"client-mix", func(s *Scenario) {
		s.Policy.ClientMix = []ClientClass{
			{Weight: 2, StagingFrac: 0.2, ReceiveCap: 30},
			{Weight: 1},
		}
	}},
	{"classes-shed", func(s *Scenario) {
		s.Policy.Classes = []TrafficClass{{Name: "premium", Share: 1}, {Name: "standard", Share: 3}}
		s.Policy.ShedWatermark = 0.7
	}},
	{"churn", func(s *Scenario) { s.Faults.MTBFHours, s.Faults.MTTRHours = 2, 0.5 }},
	{"brownouts", func(s *Scenario) {
		s.Faults.BrownoutMTBFHours, s.Faults.BrownoutMTTRHours, s.Faults.BrownoutFraction = 2, 0.5, 0.5
	}},
	{"flash-crowd", func(s *Scenario) {
		s.Curve = workload.Curve{FlashAt: 300, FlashDuration: 600, FlashFactor: 3}
	}},
	{"fail-at", func(s *Scenario) {
		s.Faults.Trace = []faults.Event{{AtHours: 0.1, Server: 1, Kind: faults.KindFail}}
	}},
	{"partial-placement", func(s *Scenario) { s.Policy.Placement = PartialPredictivePlacement }},
}

// runBudget bounds the wall time of each run in TestFeaturePairs and
// TestGoldenEquivalence, where a run takes tens of milliseconds, so an
// engine that never drains fails the test by the run's name instead of
// running into the test binary's timeout.
const runBudget = 30 * time.Second

// runWithin runs sc and returns its result and error, with finished
// false when budget passes first. The abandoned run's goroutine is left
// to the test binary's exit.
func runWithin(sc Scenario, budget time.Duration) (res *Result, finished bool, err error) {
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Run(sc)
		done <- outcome{res, err}
	}()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.res, true, o.err
	case <-timer.C:
		return nil, false, nil
	}
}

// TestFeaturePairs checks the composition space pairwise: every pair of
// pairFeatures that validates must run audit-clean within runBudget,
// and the pairs that Validate rejects are exactly the pinned ones.
func TestFeaturePairs(t *testing.T) {
	wantRejected := []string{
		"no-staging+intermittent",
		"no-migration+unlimited-hops",
		"no-migration+chain-3",
		"intermittent+batch-patch",
		"intermittent+batch-prefix",
		"batch-patch+edge",
		"batch-patch+pauses",
		"batch-prefix+pauses",
		"churn+fail-at",
		"brownouts+fail-at",
	}
	hours := 1.0
	if testing.Short() {
		hours = 0.25
	}
	var rejected []string
	for i, a := range pairFeatures {
		for _, b := range pairFeatures[i+1:] {
			sc := Scenario{
				System:       SmallSystem(),
				Policy:       PolicyP4(),
				Theta:        0.271,
				HorizonHours: hours,
				Seed:         1,
				Audit:        true,
			}
			a.on(&sc)
			b.on(&sc)
			name := a.name + "+" + b.name
			if err := sc.Validate(); err != nil {
				rejected = append(rejected, name)
				continue
			}
			_, finished, err := runWithin(sc, runBudget)
			if !finished {
				// The abandoned run still holds a CPU: stop here.
				t.Fatalf("%s: no result within %v: the run does not drain", name, runBudget)
			}
			if err != nil {
				t.Errorf("%s: validated but Run failed: %v", name, err)
			}
		}
	}
	for _, name := range rejected {
		if !slices.Contains(wantRejected, name) {
			t.Errorf("%s: rejected by Validate, want it to run", name)
		}
	}
	for _, name := range wantRejected {
		if !slices.Contains(rejected, name) {
			t.Errorf("%s: accepted by Validate, want it rejected", name)
		}
	}
}

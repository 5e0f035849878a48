package semicont

import (
	"reflect"
	"runtime"
	"testing"

	"semicont/internal/faults"
)

// TestRunTrialsDeterministicAcrossGOMAXPROCS pins the parallel-trial
// contract: RunTrials farms trials out to GOMAXPROCS workers over an
// unordered channel, so the only thing keeping results reproducible is
// that each trial derives its seed from its index and writes its result
// by index. Run the same aggregate serially and with 8 workers and
// demand bit-identical results — any hidden shared state (a global RNG,
// an append instead of an indexed store) shows up here.
func TestRunTrialsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := quickScenario()
	sc.HorizonHours = 2
	run := func(procs int) *Aggregate {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		agg, err := RunTrials(sc, 4)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial.Results {
		if *serial.Results[i] != *parallel.Results[i] {
			t.Errorf("trial %d diverged across GOMAXPROCS:\nserial   %+v\nparallel %+v",
				i, serial.Results[i], parallel.Results[i])
		}
	}
	// Aggregate samples accumulate in index order, so they must match
	// exactly too (stats.Sample has unexported fields; DeepEqual covers
	// them all).
	if !reflect.DeepEqual(serial.Utilization, parallel.Utilization) {
		t.Error("utilization sample diverged across GOMAXPROCS")
	}
	if !reflect.DeepEqual(serial.Rejection, parallel.Rejection) {
		t.Error("rejection sample diverged across GOMAXPROCS")
	}
	if !reflect.DeepEqual(serial.Migrations, parallel.Migrations) {
		t.Error("migration sample diverged across GOMAXPROCS")
	}
}

// TestFaultRunDeterministicAcrossGOMAXPROCS pins the stochastic fault
// process to the determinism contract: every failure/recovery variate is
// drawn per-server from a split RNG stream and compiled into the event
// schedule before the run starts, so the trial fan-out must not perturb
// it. Fault-heavy trials with retry and degraded playback enabled must be
// bit-identical serially and with 8 workers.
func TestFaultRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := quickScenario()
	sc.HorizonHours = 2
	sc.Policy.Migration, sc.Policy.MaxHops, sc.Policy.MaxChain = true, 2, 1
	sc.Policy.RetryQueue = true
	sc.Policy.DegradedPlayback = true
	sc.Faults = faults.Config{MTBFHours: 0.5, MTTRHours: 0.1}
	run := func(procs int) *Aggregate {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		agg, err := RunTrials(sc, 4)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	serial := run(1)
	parallel := run(8)
	churn := int64(0)
	for i := range serial.Results {
		if *serial.Results[i] != *parallel.Results[i] {
			t.Errorf("fault trial %d diverged across GOMAXPROCS:\nserial   %+v\nparallel %+v",
				i, serial.Results[i], parallel.Results[i])
		}
		churn += serial.Results[i].Failures
	}
	if churn == 0 {
		t.Error("fault process injected no failures — the scenario is not exercising the schedule")
	}
}

// TestSelectorsDeterministicAcrossGOMAXPROCS extends the parallel-trial
// contract to every registered admission selector, random-feasible
// included: its RNG derives from SelectorSeed (itself split from the
// scenario seed), so the trial fan-out must not perturb the choice
// stream. Each selector runs with DRM on so the planner seam is crossed
// too, serially and with 8 workers, and must be bit-identical.
func TestSelectorsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	for _, sel := range SelectorNames() {
		sc := quickScenario()
		sc.HorizonHours = 2
		sc.Policy.Selector = sel
		sc.Policy.Migration, sc.Policy.MaxHops, sc.Policy.MaxChain = true, 2, 2
		run := func(procs int) *Aggregate {
			t.Helper()
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			agg, err := RunTrials(sc, 4)
			if err != nil {
				t.Fatal(err)
			}
			return agg
		}
		serial := run(1)
		parallel := run(8)
		for i := range serial.Results {
			if *serial.Results[i] != *parallel.Results[i] {
				t.Errorf("selector %s trial %d diverged across GOMAXPROCS:\nserial   %+v\nparallel %+v",
					sel, i, serial.Results[i], parallel.Results[i])
			}
		}
	}
}

// TestOverloadRunDeterministicAcrossGOMAXPROCS pins the overload layer
// to the determinism contract: the per-arrival class draw comes from a
// split stream (ClassSeed), the shed controller reads only engine
// state, the flash crowd rides the thinned arrival stream, and the
// brownout schedule compiles before the run — none of which may feel
// the trial fan-out. Fault-churn trials with two classes, shedding, and
// a 2× flash crowd must be bit-identical serially and with 8 workers,
// per-class counters included (Result compares with ==, so the class
// arrays are covered).
func TestOverloadRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := quickScenario()
	sc.HorizonHours = 2
	sc.LoadFactor = 1.0
	sc.Policy.Migration, sc.Policy.MaxHops, sc.Policy.MaxChain = true, 2, 1
	sc.Policy.RetryQueue = true
	sc.Policy.DegradedPlayback = true
	sc.Policy.Classes = []TrafficClass{
		{Name: "premium", Share: 1, RetryPatienceSec: 600},
		{Name: "standard", Share: 3},
	}
	sc.Policy.ShedWatermark = 0.7
	sc.Faults = faults.Config{
		MTBFHours: 1, MTTRHours: 0.2,
		BrownoutMTBFHours: 1, BrownoutMTTRHours: 0.2, BrownoutFraction: 0.5,
	}
	sc.Curve.FlashAt = 1800
	sc.Curve.FlashDuration = 3600
	sc.Curve.FlashFactor = 2
	run := func(procs int) *Aggregate {
		t.Helper()
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		agg, err := RunTrials(sc, 4)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	serial := run(1)
	parallel := run(8)
	var classed, shed int64
	for i := range serial.Results {
		if *serial.Results[i] != *parallel.Results[i] {
			t.Errorf("overload trial %d diverged across GOMAXPROCS:\nserial   %+v\nparallel %+v",
				i, serial.Results[i], parallel.Results[i])
		}
		for c := range serial.Results[i].ClassArrivals {
			classed += serial.Results[i].ClassArrivals[c]
			shed += serial.Results[i].ClassShed[c]
		}
	}
	if classed == 0 {
		t.Error("no arrivals drew a traffic class — the class seam is not exercised")
	}
	if shed == 0 {
		t.Error("shed controller never fired — the scenario is not exercising overload")
	}
}

// TestAuditedRunDeterministic extends the plain Run determinism check to
// audited runs: the auditor keeps per-run state (replica model, event
// counters), and two runs of the same audited scenario must still agree
// on every result field, AuditedEvents included.
func TestAuditedRunDeterministic(t *testing.T) {
	sc := quickScenario()
	sc.HorizonHours = 2
	sc.Audit = true
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("identical audited scenarios diverged:\n%+v\n%+v", a, b)
	}
	if a.AuditedEvents == 0 {
		t.Error("audited run recorded no events")
	}
}

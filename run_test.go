package semicont

import (
	"math"
	"strings"
	"testing"

	"semicont/internal/faults"
	"semicont/internal/trace"
)

// failAt returns a fault configuration that fails server at hours.
func failAt(hours float64, server int) faults.Config {
	return faults.Config{Trace: []faults.Event{{AtHours: hours, Server: server, Kind: faults.KindFail}}}
}

func quickScenario() Scenario {
	return Scenario{
		System:       SmallSystem(),
		Policy:       PolicyP4(),
		Theta:        0.271,
		HorizonHours: 5,
		Seed:         1,
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := quickScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"bad system", func(s *Scenario) { s.System.NumServers = 0 }},
		{"bad policy", func(s *Scenario) { s.Policy.StagingFrac = -1 }},
		{"zero horizon", func(s *Scenario) { s.HorizonHours = 0 }},
		{"negative load", func(s *Scenario) { s.LoadFactor = -1 }},
		{"bad fail server", func(s *Scenario) { s.Faults = failAt(1, 99) }},
		{"negative shards", func(s *Scenario) { s.Shards = -1 }},
		{"shards 2", func(s *Scenario) { s.Shards = 2 }},
		{"shards 8", func(s *Scenario) { s.Shards = 8 }},
		// Shapes that once validated and then failed to build in Run.
		{"failure at +Inf", func(s *Scenario) { s.Faults = failAt(math.Inf(1), 0) }},
		{"theta overflows the Zipf weights", func(s *Scenario) { s.Theta = 1000 }},
		{"partial extras exceed the budget", func(s *Scenario) {
			s.Policy.Placement = PartialPredictivePlacement
			s.Policy.PartialTopFraction, s.Policy.PartialExtra = 1, 3
		}},
		{"partial extras leave a video without a copy", func(s *Scenario) {
			s.Policy.Placement = PartialPredictivePlacement
			s.Policy.PartialTopFraction, s.Policy.PartialExtra = 0.7, 2
		}},
		{"class shares sum to +Inf", func(s *Scenario) {
			s.Policy.Classes = []TrafficClass{{Share: 1e308}, {Share: 1e308}}
		}},
		{"staging class with a receive cap below the view rate", func(s *Scenario) {
			s.Policy.StagingFrac, s.Policy.ReceiveCap = 0, 0.5
			s.Policy.ClientMix = []ClientClass{{Weight: 1, StagingFrac: 0.2}}
		}},
	}
	for _, tc := range cases {
		sc := quickScenario()
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The obsolete FailAtHours points at its replacement for every
	// value but 0, NaN and -Inf included.
	for _, at := range []float64{1, math.NaN(), math.Inf(-1)} {
		sc := quickScenario()
		sc.FailAtHours = at
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "Faults") {
			t.Errorf("FailAtHours %g: got %v, want an error naming Faults", at, err)
		}
	}
	for _, shards := range []int{0, 1} {
		sc := quickScenario()
		sc.Shards = shards
		if err := sc.Validate(); err != nil {
			t.Errorf("Shards %d rejected: %v", shards, err)
		}
	}
	// The obsolete CheckInvariants points at its replacement.
	sc := quickScenario()
	sc.CheckInvariants = true
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "Audit") {
		t.Errorf("CheckInvariants: got %v, want an error naming Audit", err)
	}
}

func TestRunBasics(t *testing.T) {
	sc := quickScenario()
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0.5 || res.Utilization > 1.1 {
		t.Errorf("utilization = %v", res.Utilization)
	}
	if res.Arrivals != res.Accepted+res.Rejected {
		t.Errorf("arrival accounting: %d != %d + %d", res.Arrivals, res.Accepted, res.Rejected)
	}
	if res.TotalBandwidthMbps != 500 {
		t.Errorf("total bandwidth = %v", res.TotalBandwidthMbps)
	}
	if res.HorizonSeconds != 5*3600 {
		t.Errorf("horizon = %v", res.HorizonSeconds)
	}
	if res.StagingBufferMb <= 0 {
		t.Errorf("staging buffer = %v with StagingFrac 0.2", res.StagingBufferMb)
	}
	// Offered load calibration: λ·E[S] = capacity → arrival rate ×
	// horizon ≈ arrivals.
	wantArrivals := res.ArrivalRate * res.HorizonSeconds
	if float64(res.Arrivals) < wantArrivals*0.9 || float64(res.Arrivals) > wantArrivals*1.1 {
		t.Errorf("arrivals %d vs calibrated %v", res.Arrivals, wantArrivals)
	}
	if res.PlacedCopies != 220 {
		t.Errorf("placed copies = %d, want 220 (100 videos × 2.2)", res.PlacedCopies)
	}
	if res.PlacementShortfall != 0 {
		t.Errorf("shortfall = %d", res.PlacementShortfall)
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("identical scenarios diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedMatters(t *testing.T) {
	a, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	sc := quickScenario()
	sc.Seed = 2
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrivals == b.Arrivals && a.AcceptedMb == b.AcceptedMb {
		t.Error("different seeds produced identical runs")
	}
}

func TestRunConservation(t *testing.T) {
	res, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	// No failures: every accepted megabit is delivered once drained.
	if !approxEq(res.AcceptedMb, res.DeliveredMb, 1e-3) {
		t.Errorf("accepted %v Mb vs delivered %v Mb", res.AcceptedMb, res.DeliveredMb)
	}
	if res.Completions != res.Accepted {
		t.Errorf("completions %d != accepted %d", res.Completions, res.Accepted)
	}
}

func TestRunWithFailure(t *testing.T) {
	sc := quickScenario()
	sc.Faults = failAt(2, 2)
	sc.LoadFactor = 0.8
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.RescuedStreams+res.DroppedStreams == 0 {
		t.Error("failure had no effect on any stream")
	}
	if res.DeliveredMb > res.AcceptedMb+1e-3 {
		t.Errorf("delivered %v exceeds accepted %v", res.DeliveredMb, res.AcceptedMb)
	}
}

func TestRunObserver(t *testing.T) {
	sc := quickScenario()
	sc.HorizonHours = 1
	rec := &trace.Recorder{}
	sc.Observer = rec
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	n := map[trace.Kind]int64{}
	for _, ev := range rec.Events {
		n[ev.Kind]++
	}
	for _, c := range []struct {
		kind trace.Kind
		want int64
	}{
		{trace.Admit, res.Accepted},
		{trace.Reject, res.Rejected},
		{trace.Migrate, res.Migrations},
		{trace.Finish, res.Completions},
	} {
		if n[c.kind] != c.want {
			t.Errorf("observer recorded %d %s events, Result counts %d", n[c.kind], c.kind, c.want)
		}
	}
}

func TestRunMeanChainLength(t *testing.T) {
	sc := quickScenario()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdmissionsViaDRM > 0 && res.MeanChainLength < 1 {
		t.Errorf("mean chain length = %v with %d DRM admissions", res.MeanChainLength, res.AdmissionsViaDRM)
	}
	// Paper configuration: chain length is exactly one.
	if res.AdmissionsViaDRM > 0 && res.MeanChainLength != 1 {
		t.Errorf("mean chain = %v, want 1 under MaxChain=1", res.MeanChainLength)
	}
}

func TestRunTrials(t *testing.T) {
	agg, err := RunTrials(quickScenario(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Results) != 3 || agg.Utilization.N() != 3 {
		t.Fatalf("aggregate = %+v", agg)
	}
	// Trials differ (different derived seeds) but are all reasonable.
	if agg.Utilization.Min() == agg.Utilization.Max() {
		t.Error("all trials identical; seeds not derived per trial")
	}
	if agg.Utilization.Mean() < 0.5 {
		t.Errorf("mean utilization = %v", agg.Utilization.Mean())
	}
}

func TestRunTrialsDeterministic(t *testing.T) {
	a, err := RunTrials(quickScenario(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrials(quickScenario(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if *a.Results[i] != *b.Results[i] {
			t.Errorf("trial %d diverged across identical RunTrials calls", i)
		}
	}
}

func TestRunTrialsErrors(t *testing.T) {
	if _, err := RunTrials(quickScenario(), 0); err == nil {
		t.Error("zero trials accepted")
	}
	sc := quickScenario()
	sc.Observer = &trace.Recorder{}
	if _, err := RunTrials(sc, 2); err == nil {
		t.Error("observer on multi-trial run accepted (would race)")
	}
	bad := quickScenario()
	bad.HorizonHours = -1
	if _, err := RunTrials(bad, 2); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestRunLoadFactor(t *testing.T) {
	light := quickScenario()
	light.Policy = PolicyP1()
	light.LoadFactor = 0.5
	lres, err := Run(light)
	if err != nil {
		t.Fatal(err)
	}
	full := quickScenario()
	full.Policy = PolicyP1()
	fres, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Utilization >= fres.Utilization {
		t.Errorf("half load utilization %v ≥ full load %v", lres.Utilization, fres.Utilization)
	}
	if lres.RejectionRatio > fres.RejectionRatio {
		t.Errorf("half load rejects more: %v vs %v", lres.RejectionRatio, fres.RejectionRatio)
	}
}

func TestRunAllPaperPolicies(t *testing.T) {
	for _, p := range PaperPolicies() {
		sc := quickScenario()
		sc.Policy = p
		sc.HorizonHours = 2
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if res.Utilization <= 0 {
			t.Errorf("%s: utilization %v", p.Name, res.Utilization)
		}
		if !p.Migration && res.Migrations != 0 {
			t.Errorf("%s migrated %d streams without DRM", p.Name, res.Migrations)
		}
	}
}

func TestRunIntermittentPolicy(t *testing.T) {
	sc := quickScenario()
	sc.Policy = Policy{
		Name: "intermittent", Placement: EvenPlacement,
		StagingFrac: 0.2, Intermittent: true,
	}
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the minimum-flow twin on the same workload.
	base := quickScenario()
	base.Policy = PolicyP2()
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted < bres.Accepted {
		t.Errorf("intermittent accepted %d < minimum-flow %d", res.Accepted, bres.Accepted)
	}
	if bres.GlitchedStreams != 0 {
		t.Errorf("minimum-flow glitched %d streams", bres.GlitchedStreams)
	}
}

func TestRunReplicationPolicy(t *testing.T) {
	sc := quickScenario()
	sc.Theta = -1 // skewed demand: replication has work to do
	sc.Policy = Policy{Name: "repl", Placement: EvenPlacement, Replicate: true}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicationsStarted == 0 || res.ReplicationsCompleted == 0 {
		t.Fatalf("no replication activity under skewed demand: %+v", res)
	}
	if res.ReplicatedMb <= 0 {
		t.Errorf("ReplicatedMb = %v", res.ReplicatedMb)
	}
	// Replication must improve on the bare baseline.
	base := sc
	base.Policy = PolicyP1()
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= bres.Utilization {
		t.Errorf("replication utilization %v not above baseline %v", res.Utilization, bres.Utilization)
	}
}

func TestRunClientMixPolicy(t *testing.T) {
	sc := quickScenario()
	sc.Policy = Policy{
		Name: "mix", Placement: EvenPlacement, Migration: true,
		ClientMix: []ClientClass{
			{Weight: 1, StagingFrac: 0.2, ReceiveCap: 30},
			{Weight: 1, StagingFrac: 0, ReceiveCap: 30},
		},
	}
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// A half-thin population should land between all-staged (P4) and
	// no-staging (P3).
	all := quickScenario()
	all.Policy = PolicyP4()
	ares, err := Run(all)
	if err != nil {
		t.Fatal(err)
	}
	none := quickScenario()
	none.Policy = PolicyP3()
	nres, err := Run(none)
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization > ares.Utilization+0.01 || res.Utilization < nres.Utilization-0.01 {
		t.Errorf("mixed population utilization %v outside [%v, %v]",
			res.Utilization, nres.Utilization, ares.Utilization)
	}
}

func TestPolicyValidateExtensions(t *testing.T) {
	cases := []Policy{
		{Intermittent: true},                     // no buffers anywhere
		{ResumeGuard: -1},                        // negative guard
		{ReplicationRate: -3},                    // negative copy rate
		{ClientMix: []ClientClass{{Weight: -1}}}, // negative weight
		{ClientMix: []ClientClass{{Weight: 0}}},  // no positive weight
	}
	for i, p := range cases {
		if err := validatePolicy(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	good := Policy{StagingFrac: 0.2, Intermittent: true, ResumeGuard: 10, Replicate: true, ReplicationRate: 6}
	if err := validatePolicy(good); err != nil {
		t.Errorf("valid extension policy rejected: %v", err)
	}
}

func TestRunInteractivePolicy(t *testing.T) {
	sc := quickScenario()
	sc.Policy.PauseProb = 0.5
	sc.Policy.MinPauseSec = 60
	sc.Policy.MaxPauseSec = 300
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewerPauses == 0 {
		t.Error("no pauses recorded at PauseProb=0.5")
	}
	// Conservation still holds with pauses in play.
	if !approxEq(res.AcceptedMb, res.DeliveredMb, 1e-3) {
		t.Errorf("accepted %v vs delivered %v", res.AcceptedMb, res.DeliveredMb)
	}
}

func TestPolicyValidateInteractivity(t *testing.T) {
	bad := []Policy{
		{PauseProb: -0.5},
		{PauseProb: 2},
		{PauseProb: 0.5}, // missing durations
		{PauseProb: 0.5, MinPauseSec: 9, MaxPauseSec: 3}, // inverted
	}
	for i, p := range bad {
		if err := validatePolicy(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	good := Policy{PauseProb: 0.3, MinPauseSec: 30, MaxPauseSec: 600}
	if err := validatePolicy(good); err != nil {
		t.Errorf("valid interactive policy rejected: %v", err)
	}
}

// fullObserver exercises every Observer callback through the public
// API: a failing server with DRM rescue, replication, and rejections.
type countingObserver struct {
	admits, rejects, migrates, finishes, failures, recoveries, replicates int
}

func (o *countingObserver) OnAdmit(t float64, id int64, v, s int, m bool) { o.admits++ }
func (o *countingObserver) OnReject(t float64, v int)                     { o.rejects++ }
func (o *countingObserver) OnMigrate(t float64, id int64, v, f, to int, r bool) {
	o.migrates++
}
func (o *countingObserver) OnFinish(t float64, id int64, v, s int) { o.finishes++ }
func (o *countingObserver) OnFailure(t float64, s, r, d, p int)    { o.failures++ }
func (o *countingObserver) OnRecovery(t float64, s int, cold bool) { o.recoveries++ }
func (o *countingObserver) OnReplicate(t float64, v, f, to int)    { o.replicates++ }

func TestObserverAdapterFullSurface(t *testing.T) {
	obs := &countingObserver{}
	sc := Scenario{
		System:       SmallSystem(),
		Policy:       Policy{Name: "all", Placement: EvenPlacement, Migration: true, Replicate: true},
		Theta:        -1, // rejections → replications
		HorizonHours: 10,
		Seed:         2,
		Faults:       failAt(5, 1),
		Observer:     obs,
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if int64(obs.admits) != res.Accepted || int64(obs.rejects) != res.Rejected {
		t.Errorf("admission callbacks %d/%d vs %d/%d", obs.admits, obs.rejects, res.Accepted, res.Rejected)
	}
	if obs.failures != 1 {
		t.Errorf("failures = %d", obs.failures)
	}
	if int64(obs.replicates) != res.ReplicationsCompleted {
		t.Errorf("replicate callbacks %d vs %d", obs.replicates, res.ReplicationsCompleted)
	}
	if obs.migrates == 0 && res.Migrations > 0 {
		t.Error("migration callbacks missing")
	}
}

func TestRunPatchingPolicy(t *testing.T) {
	sc := quickScenario()
	sc.Theta = -1 // hot titles overlap constantly
	sc.Policy = Policy{
		Name: "patch", Placement: EvenPlacement,
		StagingFrac: 0.2, BatchPolicy: BatchPolicyPatch, BatchWindowSec: 600,
	}
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PatchedJoins == 0 || res.SharedMb <= 0 {
		t.Fatalf("no patching activity under skew: %+v", res)
	}
	// Patching must raise acceptance over the unicast twin.
	base := sc
	base.Policy = PolicyP2()
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectionRatio >= bres.RejectionRatio {
		t.Errorf("patching rejection %v not below unicast %v", res.RejectionRatio, bres.RejectionRatio)
	}
	// Incompatibility surfaces as a validation error.
	bad := sc
	bad.Policy.Intermittent = true
	if _, err := Run(bad); err == nil {
		t.Error("patching + intermittent accepted")
	}
	bad = sc
	bad.Policy.Intermittent = false
	bad.Policy.PauseProb = 0.5
	bad.Policy.MinPauseSec, bad.Policy.MaxPauseSec = 10, 20
	if _, err := Run(bad); err == nil {
		t.Error("patching + interactivity accepted")
	}
}

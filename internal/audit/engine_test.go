package audit_test

import (
	"errors"
	"testing"

	"semicont"
	"semicont/internal/audit"
	"semicont/internal/catalog"
	"semicont/internal/core"
	"semicont/internal/faults"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// stagedEngine builds a small two-server cluster with client staging,
// feeding spare under the given discipline — enough concurrency that
// the spreader runs multi-candidate passes on nearly every wake.
func stagedEngine(t *testing.T, seed uint64, spare core.SpareDiscipline) *core.Engine {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 20, MinLength: 300, MaxLength: 900, ViewRate: 3, Theta: 0,
	}, rng.New(rng.DeriveSeed(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{1e6, 1e6}
	lay, err := placement.Build(placement.Even{}, cat, 2, caps, rng.New(rng.DeriveSeed(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	// Overload the cluster and cap clients low: buffers stage slowly, so
	// most spare passes juggle several concurrent candidates.
	rate, err := workload.CalibratedRate(cat, 120, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(cat, rate, rng.New(rng.DeriveSeed(seed, 3)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Config{
		ServerBandwidth: []float64{60, 60},
		ViewRate:        3,
		Workahead:       true,
		Spare:           spare,
		BufferCapacity:  cat.AvgSize() * 0.2,
		ReceiveCap:      6,
		Migration:       core.MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1},
	}, cat, lay, gen)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// eftfLabel forwards every tap to the auditor, but reports each spare
// feed as EFTF whatever discipline ran it.
type eftfLabel struct{ *audit.Auditor }

func (l eftfLabel) SpareOrder(t float64, server int32, _ core.SpareDiscipline, grants []core.SpareGrant) error {
	return l.Auditor.SpareOrder(t, server, core.EFTF, grants)
}

// TestAuditorCatchesBrokenEFTF is the acceptance check for the audit
// layer: sabotage the EFTF comparator (an LFTF engine feeds spare
// bandwidth in inverted order, and eftfLabel reports it as EFTF) and
// require the auditor to reject the run with a structured eftf-order
// violation.
func TestAuditorCatchesBrokenEFTF(t *testing.T) {
	e := stagedEngine(t, 7, core.LFTF)
	a := audit.New()
	e.SetAuditTap(eftfLabel{a})
	_, err := e.Run(2 * 3600)
	if err == nil {
		t.Fatal("sabotaged EFTF ordering passed the audit")
	}
	var v *audit.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want *audit.Violation, got %T: %v", err, err)
	}
	if v.Rule != "eftf-order" {
		t.Fatalf("rule = %q, want eftf-order (%v)", v.Rule, v)
	}
	if v.Seq == 0 || v.Server < 0 || v.Request == 0 {
		t.Errorf("violation lacks context: %+v", v)
	}
	if a.Err() == nil {
		t.Error("auditor Err() nil after rejecting the run")
	}
}

// wakeSkew forwards every tap to the auditor, but reports each loaded
// server's NextWake one second early in the event snapshots, leaving
// the stored wake keys intact.
type wakeSkew struct{ *audit.Auditor }

func (w wakeSkew) Event(rec core.AuditEventRecord) error {
	rec.Servers = skewedWake{rec.Servers}
	return w.Auditor.Event(rec)
}

// skewedWake streams the engine's snapshot with each loaded server's
// NextWake one second early.
type skewedWake struct{ core.AuditServerStream }

func (s skewedWake) Server(i int) *core.AuditServerState {
	st := s.AuditServerStream.Server(i)
	if st.Streams() > 0 {
		st.NextWake--
	}
	return st
}

// TestAuditorCatchesSkewedWakeIndex is the acceptance check for the
// wake-exact rule: sabotage the audit snapshot's NextWake (wakeSkew)
// and require the auditor to reject the run. This is exactly the
// signature of a real maintenance bug — a missed dirty mark or
// unfolded copy key makes the index disagree with its own keys — and
// the rule must catch it with an exact comparison, not an epsilon.
func TestAuditorCatchesSkewedWakeIndex(t *testing.T) {
	e := stagedEngine(t, 7, core.EFTF)
	a := audit.New()
	e.SetAuditTap(wakeSkew{a})
	_, err := e.Run(2 * 3600)
	if err == nil {
		t.Fatal("skewed wake index passed the audit")
	}
	var v *audit.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want *audit.Violation, got %T: %v", err, err)
	}
	if v.Rule != "wake-exact" {
		t.Fatalf("rule = %q, want wake-exact (%v)", v.Rule, v)
	}
	if v.Seq == 0 || v.Server < 0 {
		t.Errorf("violation lacks context: %+v", v)
	}
}

// TestAuditorCleanOnHonestEFTF is the control: the identical simulation
// without sabotage audits clean.
func TestAuditorCleanOnHonestEFTF(t *testing.T) {
	e := stagedEngine(t, 7, core.EFTF)
	a := audit.New()
	e.SetAuditTap(a)
	if _, err := e.Run(2 * 3600); err != nil {
		t.Fatalf("honest EFTF rejected: %v", err)
	}
	if a.Events() == 0 {
		t.Error("auditor saw no events")
	}
	if len(a.Violations()) != 0 {
		t.Errorf("violations = %v", a.Violations())
	}
}

// randomScenario derives a scenario exercising a seed-dependent mix of
// every mechanism: staging (all three spare disciplines), DRM, dynamic
// replication, intermittent scheduling, patching, interactivity, and
// mid-run server failure.
func randomScenario(seed uint64) semicont.Scenario {
	sys := semicont.System{
		Name:            "rand",
		NumServers:      2 + int(seed%3),
		ServerBandwidth: 30 + float64(seed%3)*15,
		DiskCapacity:    2e5,
		NumVideos:       25,
		MinVideoLength:  300,
		MaxVideoLength:  900,
		AvgCopies:       2,
		ViewRate:        3,
	}
	pol := semicont.Policy{Name: "rand"}
	if seed&1 != 0 {
		pol.StagingFrac = 0.2
		pol.Spare = semicont.SpareKind(seed % 3)
	}
	if seed&2 != 0 {
		pol.Migration = true
		pol.MaxChain = 1 + int(seed%2)
	}
	if seed&4 != 0 {
		pol.Replicate = true
	}
	if seed&8 != 0 && pol.StagingFrac > 0 {
		pol.Intermittent = true
	}
	switch (seed >> 4) % 3 {
	case 1:
		if pol.StagingFrac > 0 && !pol.Intermittent {
			pol.BatchPolicy, pol.BatchWindowSec = semicont.BatchPolicyPatch, 300
		}
	case 2:
		if !pol.Intermittent {
			pol.PauseProb = 0.2
			pol.MinPauseSec = 30
			pol.MaxPauseSec = 300
		}
	}
	sc := semicont.Scenario{
		System:       sys,
		Policy:       pol,
		Theta:        float64(int(seed%6))/2 - 1.5, // −1.5 … 1
		HorizonHours: 1,
		LoadFactor:   1.2,
		Seed:         seed,
		Audit:        true,
	}
	if (seed>>6)&1 != 0 && pol.BatchPolicy == "" {
		sc.Faults.Trace = []faults.Event{{AtHours: 0.5, Server: int(seed) % sys.NumServers, Kind: faults.KindFail}}
	}
	return sc
}

// TestRandomScenariosAuditClean runs randomized full-stack scenarios
// with the auditor attached and requires zero violations: the engine's
// actual behaviour satisfies every audited conservation law across the
// mechanism space, not just on the curated experiment configurations.
func TestRandomScenariosAuditClean(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		sc := randomScenario(seed)
		res, err := semicont.Run(sc)
		if err != nil {
			var v *audit.Violation
			if errors.As(err, &v) {
				t.Fatalf("seed %d (policy %+v): audit violation: %v", seed, sc.Policy, v)
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.AuditedEvents == 0 {
			t.Fatalf("seed %d: auditor saw no events", seed)
		}
	}
}

// TestAuditedRunMatchesUnaudited guards against the observer effect: the
// auditor must not perturb the simulation it is checking.
func TestAuditedRunMatchesUnaudited(t *testing.T) {
	plain := randomScenario(11)
	plain.Audit = false
	pres, err := semicont.Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	audited := randomScenario(11)
	ares, err := semicont.Run(audited)
	if err != nil {
		t.Fatal(err)
	}
	got, want := *ares, *pres
	got.AuditedEvents = 0 // the only field allowed to differ
	if got != want {
		t.Errorf("auditing changed the run:\nplain   %+v\naudited %+v", pres, ares)
	}
}

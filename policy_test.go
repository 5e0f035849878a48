package semicont

import (
	"math"
	"strings"
	"testing"
)

func TestPaperPolicies(t *testing.T) {
	ps := PaperPolicies()
	if len(ps) != 8 {
		t.Fatalf("%d policies, want 8", len(ps))
	}
	// Figure 6's matrix: P1–P4 even, P5–P8 predictive; migration on
	// P3, P4, P7, P8; 20% staging on the even-numbered policies.
	for i, p := range ps {
		wantName := string(rune('P')) + string(rune('1'+i))
		if p.Name != wantName {
			t.Errorf("policy %d named %q, want %q", i, p.Name, wantName)
		}
		wantPred := i >= 4
		if (p.Placement == PredictivePlacement) != wantPred {
			t.Errorf("%s placement = %v", p.Name, p.Placement)
		}
		wantMigr := i%4 >= 2
		if p.Migration != wantMigr {
			t.Errorf("%s migration = %v, want %v", p.Name, p.Migration, wantMigr)
		}
		wantStage := i%2 == 1
		if (p.StagingFrac == 0.2) != wantStage || (wantStage == (p.StagingFrac == 0)) {
			t.Errorf("%s staging = %v", p.Name, p.StagingFrac)
		}
		if err := validatePolicy(p); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
	}
}

// validatePolicy validates p the one way a Policy is validated: inside
// a Scenario, here quickScenario's small system.
func validatePolicy(p Policy) error {
	sc := quickScenario()
	sc.Policy = p
	return sc.Validate()
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{Migration: true}
	if p.maxHops() != 1 {
		t.Errorf("default maxHops = %d, want 1", p.maxHops())
	}
	if p.maxChain() != 1 {
		t.Errorf("default maxChain = %d, want 1", p.maxChain())
	}
	if p.receiveCap() != DefaultReceiveCap {
		t.Errorf("default receiveCap = %v", p.receiveCap())
	}
	p.MaxHops = UnlimitedHops
	if p.maxHops() != UnlimitedHops {
		t.Errorf("unlimited hops = %d", p.maxHops())
	}
	p.ReceiveCap = -1
	if p.receiveCap() != 0 {
		t.Errorf("unlimited receive = %v", p.receiveCap())
	}
	p.ReceiveCap = 45
	if p.receiveCap() != 45 {
		t.Errorf("explicit receive = %v", p.receiveCap())
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []Policy{
		{Placement: PlacementKind(9)},
		{StagingFrac: -0.1},
		{SwitchDelay: -1},
		{Migration: true, MaxHops: -5},
		{Migration: true, MaxChain: -1},
		{Placement: PartialPredictivePlacement, PartialTopFraction: math.NaN()},
		{Placement: PartialPredictivePlacement, PartialTopFraction: 1.5},
		{Placement: PartialPredictivePlacement, PartialExtra: -1},
	}
	for i, p := range cases {
		if err := validatePolicy(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestPlacementKindString(t *testing.T) {
	if EvenPlacement.String() != "even" ||
		PredictivePlacement.String() != "predictive" ||
		PartialPredictivePlacement.String() != "partial-predictive" {
		t.Error("placement names wrong")
	}
	if PlacementKind(42).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestSpareKind(t *testing.T) {
	if EFTFSpare.String() != "eftf" || LFTFSpare.String() != "lftf" || EvenSplitSpare.String() != "even-split" {
		t.Error("spare kind names wrong")
	}
	if SpareKind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
	bad := Policy{Spare: SpareKind(9)}
	if err := validatePolicy(bad); err == nil {
		t.Error("unknown spare kind accepted")
	}
	ok := Policy{StagingFrac: 0.2, Spare: LFTFSpare}
	if err := validatePolicy(ok); err != nil {
		t.Errorf("LFTF policy rejected: %v", err)
	}
}

// TestRetiredSpellings pins the obsolete Policy fields to their no-op
// values: each retired value is rejected with an error that names the
// field replacing it, and Allocator: AllocatorEFTF, the one value still
// accepted, runs bit-identical to leaving the field empty.
func TestRetiredSpellings(t *testing.T) {
	cases := []struct {
		name        string
		mutate      func(*Policy)
		replacement string
	}{
		{"minflow-lftf", func(p *Policy) { p.Allocator = "minflow-lftf" }, "Spare"},
		{"intermittent", func(p *Policy) { p.Allocator = "intermittent" }, "Intermittent"},
		{"eftf-beside-lftf", func(p *Policy) { p.Allocator, p.Spare = AllocatorEFTF, LFTFSpare }, "Spare"},
		{"eftf-beside-intermittent", func(p *Policy) { p.Allocator, p.Intermittent = AllocatorEFTF, true }, "Intermittent"},
		{"direct-only", func(p *Policy) { p.Planner = "direct-only" }, "MaxChain"},
		{"chain-dfs", func(p *Policy) { p.Planner = "chain-dfs" }, "MaxChain"},
		{"patch-window", func(p *Policy) { p.PatchWindowSec = 300 }, "BatchPolicy"},
	}
	for _, tc := range cases {
		sc := quickScenario()
		tc.mutate(&sc.Policy)
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), tc.replacement) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.replacement)
		}
	}
	eftf := quickScenario()
	eftf.Policy.Allocator = AllocatorEFTF
	a, err := Run(eftf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickScenario())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("Allocator %q diverged from the empty field:\n%+v\n%+v", AllocatorEFTF, a, b)
	}
}

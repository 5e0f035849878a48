package semicont

import "testing"

// edgeScenario is quickScenario with the edge tier on: two nodes, a
// 900-second prefix, and a budget around a third of the catalog's
// prefix bytes so hits and misses both occur.
func edgeScenario() Scenario {
	sc := quickScenario()
	sc.Policy = Policy{
		Name:          "edge",
		Placement:     EvenPlacement,
		StagingFrac:   0.2,
		Migration:     true,
		EdgeNodes:     2,
		EdgePrefixSec: 900,
		EdgeCacheMb:   90000,
	}
	return sc
}

func TestPolicyValidateEdge(t *testing.T) {
	bad := []Policy{
		{EdgeNodes: -1},
		{EdgeNodes: 2},                     // missing prefix + cache
		{EdgeNodes: 2, EdgePrefixSec: 900}, // missing cache
		{EdgeNodes: 2, EdgePrefixSec: -1, EdgeCacheMb: 1000}, // negative prefix
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: -1},  // negative cache
		{EdgePrefixSec: 900},            // prefix without the tier
		{EdgeCacheMb: 1000},             // cache without the tier
		{EdgeCachePolicy: EdgeCacheLRU}, // policy without the tier
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000, EdgeCachePolicy: "nope"},
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000, PatchWindowSec: 600},           // legacy patching behind the edge
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000, BatchPolicy: BatchPolicyPatch}, // patch grafts onto whole objects
		{BatchPolicy: "nope"},
		{BatchPolicy: BatchPolicyPatch, PatchWindowSec: 600},                                       // two spellings of one knob
		{BatchWindowSec: 60, PatchWindowSec: 600},                                                  // two windows for one patching
		{BatchPolicy: BatchPolicyBatchPrefix, BatchWindowSec: 60},                                  // batch-prefix without the tier
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000, BatchPolicy: BatchPolicyBatchPrefix}, // missing window
		{BatchWindowSec: -1},
		{BatchWindowSec: 60}, // window without a sharing policy
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000,
			BatchPolicy: BatchPolicyBatchPrefix, BatchWindowSec: 60, StagingFrac: 0.2, Intermittent: true},
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000,
			BatchPolicy: BatchPolicyBatchPrefix, BatchWindowSec: 60,
			PauseProb: 0.5, MinPauseSec: 10, MaxPauseSec: 20},
	}
	for i, p := range bad {
		if err := validatePolicy(p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	good := []Policy{
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000},
		{EdgeNodes: 1, EdgePrefixSec: 900, EdgeCacheMb: 1000, EdgeCachePolicy: EdgeCacheLRU},
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000,
			BatchPolicy: BatchPolicyBatchPrefix, BatchWindowSec: 300},
		{BatchPolicy: BatchPolicyPatch, BatchWindowSec: 600, StagingFrac: 0.2},
		{BatchPolicy: BatchPolicyUnicast},
	}
	for i, p := range good {
		if err := validatePolicy(p); err != nil {
			t.Errorf("valid edge policy %d rejected: %v", i, err)
		}
	}
	if len(BatchPolicyNames()) < 3 {
		t.Errorf("batch registry too small: %v", BatchPolicyNames())
	}
	if len(EdgeCachePolicyNames()) < 2 {
		t.Errorf("edge cache registry too small: %v", EdgeCachePolicyNames())
	}
}

// TestRunEdgePolicy pins the tier's accounting identities on an audited
// run: edge hits happen, edge bytes never enter cluster egress, and the
// ClusterEgressMb mirror equals DeliveredMb bit-for-bit (the
// edge-accounting audit rule checks the same identity per event).
func TestRunEdgePolicy(t *testing.T) {
	sc := edgeScenario()
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeHits == 0 || res.EdgeMb <= 0 {
		t.Fatalf("no edge activity: %+v", res)
	}
	if res.ClusterEgressMb != res.DeliveredMb {
		t.Errorf("cluster egress %v != delivered %v", res.ClusterEgressMb, res.DeliveredMb)
	}
	// The edge absorbs prefix bytes, so denial cannot be worse than the
	// no-edge twin at the same offered load.
	base := sc
	base.Policy.EdgeNodes = 0
	base.Policy.EdgePrefixSec, base.Policy.EdgeCacheMb = 0, 0
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if bres.EdgeHits != 0 || bres.EdgeMb != 0 || bres.ClusterEgressMb != 0 {
		t.Errorf("edge metrics nonzero with the tier disabled: %+v", bres)
	}
	if res.RejectionRatio > bres.RejectionRatio {
		t.Errorf("edge rejection %v above no-edge %v", res.RejectionRatio, bres.RejectionRatio)
	}
}

// TestRunBatchPrefixPolicy exercises the edge-aware sharing policy:
// joins happen on hot suffixes and shared bytes are recorded, under the
// auditor.
func TestRunBatchPrefixPolicy(t *testing.T) {
	sc := edgeScenario()
	sc.Theta = -1 // hot titles overlap constantly
	sc.Policy.BatchPolicy = BatchPolicyBatchPrefix
	sc.Policy.BatchWindowSec = 300
	sc.Audit = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchedJoins == 0 || res.SharedMb <= 0 {
		t.Fatalf("no batching activity under skew: %+v", res)
	}
	if res.ClusterEgressMb != res.DeliveredMb {
		t.Errorf("cluster egress %v != delivered %v", res.ClusterEgressMb, res.DeliveredMb)
	}
}

// TestSpellingEquivalence pins each second spelling of a policy to the
// spelling it aliases: both sides of every pair must return equal
// Results bit for bit, and the mechanism the pair exercises must have
// run (patch joins, DRM admissions or acceptances), so no pair passes
// by doing nothing.
//
//   - BatchPolicy "patch" with a window is the legacy PatchWindowSec.
//   - The direct-only planner at MaxChain 3 plans exactly what the
//     default planner plans at MaxChain 1: single moves. (At MaxChain
//     3 the default planner reaches chains of length 2 on this load.)
//   - A built-in Allocator name is the Spare/Intermittent fields it
//     implies.
func TestSpellingEquivalence(t *testing.T) {
	patch := quickScenario()
	patch.Theta = -1
	patch.Policy = Policy{
		Name: "patch", Placement: EvenPlacement,
		StagingFrac: 0.2, PatchWindowSec: 300,
	}
	batch := patch
	batch.Policy.PatchWindowSec = 0
	batch.Policy.BatchPolicy = BatchPolicyPatch
	batch.Policy.BatchWindowSec = 300

	overload := quickScenario()
	overload.LoadFactor = 1.3
	overload.Policy.MaxHops = UnlimitedHops
	directOnly := overload
	directOnly.Policy.Planner = PlannerDirectOnly
	directOnly.Policy.MaxChain = 3
	singleMove := overload
	singleMove.Policy.MaxChain = 1

	withPolicy := func(mutate func(*Policy)) Scenario {
		sc := quickScenario()
		mutate(&sc.Policy)
		return sc
	}
	joins := func(r *Result) int64 { return r.PatchedJoins }
	drm := func(r *Result) int64 { return r.AdmissionsViaDRM }
	accepted := func(r *Result) int64 { return r.Accepted }
	pairs := []struct {
		name       string
		a, b       Scenario
		mechanism  string
		activityOf func(*Result) int64
	}{
		{"patch", patch, batch, "patched joins", joins},
		{"planner", directOnly, singleMove, "DRM admissions", drm},
		{"allocator-lftf",
			withPolicy(func(p *Policy) { p.Allocator = AllocatorLFTF }),
			withPolicy(func(p *Policy) { p.Spare = LFTFSpare }),
			"acceptances", accepted},
		{"allocator-evensplit",
			withPolicy(func(p *Policy) { p.Allocator = AllocatorEvenSplit }),
			withPolicy(func(p *Policy) { p.Spare = EvenSplitSpare }),
			"acceptances", accepted},
		{"allocator-intermittent",
			withPolicy(func(p *Policy) { p.Allocator, p.Spare = AllocatorIntermittent, LFTFSpare }),
			withPolicy(func(p *Policy) { p.Intermittent, p.Spare = true, LFTFSpare }),
			"acceptances", accepted},
	}
	for _, pc := range pairs {
		t.Run(pc.name, func(t *testing.T) {
			a, err := Run(pc.a)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(pc.b)
			if err != nil {
				t.Fatal(err)
			}
			if pc.activityOf(a) == 0 {
				t.Fatalf("no %s; the equivalence would pin nothing", pc.mechanism)
			}
			if *a != *b {
				t.Errorf("spellings diverged:\n%+v\n%+v", a, b)
			}
		})
	}
	// Without the direct-only cap the same load builds longer chains,
	// so the planner pair is equal because of the cap.
	chained := directOnly
	chained.Policy.Planner = ""
	res, err := Run(chained)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxChainUsed < 2 {
		t.Errorf("default planner at MaxChain 3 used chains of at most %d; the planner pair pins nothing", res.MaxChainUsed)
	}
}

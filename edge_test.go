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
		{EdgeNodes: 2, EdgePrefixSec: 900, EdgeCacheMb: 1000, BatchPolicy: BatchPolicyPatch}, // patch grafts onto whole objects
		{BatchPolicy: "nope"},
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

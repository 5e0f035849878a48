package core

// The edge/proxy tier (ROADMAP: "Edge/proxy tier with prefix caching
// and multicast batching"). Edge nodes sit between clients and the
// cluster and hold the first PrefixSec seconds of selected videos in a
// bounded byte budget (an internal/edge.CachePolicy per node). An
// arrival lands on one node (deterministic round-robin); when the node
// holds the video's prefix, the client plays the head locally and the
// cluster transmits only the suffix — the request admitted through the
// controller is startOff deep into the object and PrefixMb smaller.
// When the cached prefix covers the whole object the cluster is not
// involved at all.
//
// Modeling choices, documented:
//
//   - The suffix stream starts at admission and its playback clock
//     starts with it, exactly like a whole-object request of the
//     suffix's size. In reality the client finishes the prefix first;
//     starting the suffix's deadline immediately is conservative (the
//     cluster gets less slack, never more), and it keeps every fluid
//     invariant of the minimum-flow model intact.
//   - How prefixes reach the edge nodes (off-peak push, cache fill) is
//     out of band: fill traffic is not cluster egress. The LRU policy
//     models demand-driven content churn, not fill bandwidth.
//   - Prefix bytes are accounted in Metrics.EdgeMb, never in
//     AcceptedBytes/DeliveredBytes, so cluster utilization keeps its
//     paper meaning. Metrics.ClusterEgressMb mirrors DeliveredBytes on
//     edge runs so the egress the tier is supposed to cut is a named,
//     audited quantity.

import (
	"fmt"

	"semicont/internal/edge"
)

// EdgeConfig configures the proxy tier. The zero value disables it.
type EdgeConfig struct {
	// Nodes is the number of edge proxy nodes; 0 disables the tier.
	// Arrivals are assigned to nodes round-robin in arrival order.
	Nodes int

	// PrefixSec is the cached prefix length per video, in seconds of
	// playback (clamped to each video's duration). Required when the
	// tier is enabled.
	PrefixSec float64

	// CacheMb is each node's cache byte budget in Mb. Required when
	// the tier is enabled.
	CacheMb float64

	// CachePolicy names the per-node prefix cache policy (see
	// edge.Names). Empty selects edge.PolicyStaticZipf.
	CachePolicy string

	// Batch names the stream-batching policy (see BatchPolicyNames):
	// how concurrent requests for the same title share cluster streams.
	// Empty means BatchUnicast.
	Batch string

	// BatchWindow bounds the catch-up a batched joiner may need, in
	// seconds of playback. Required by BatchBatchPrefix; BatchPatch
	// defaults it to 20 minutes when zero.
	BatchWindow float64
}

// Validate reports configuration errors local to the edge tier.
// Cross-field rules against Intermittent and Interactivity live in
// Config.Validate.
func (c EdgeConfig) Validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("core: negative edge Nodes %d", c.Nodes)
	}
	if c.Nodes > 0 {
		if !finite(c.PrefixSec) || c.PrefixSec <= 0 {
			return fmt.Errorf("core: edge PrefixSec %g must be positive and finite", c.PrefixSec)
		}
		if !finite(c.CacheMb) || c.CacheMb <= 0 {
			return fmt.Errorf("core: edge CacheMb %g must be positive and finite", c.CacheMb)
		}
		if c.CachePolicy != "" && !edge.Has(c.CachePolicy) {
			return fmt.Errorf("core: unknown edge cache policy %q (have %v)", c.CachePolicy, edge.Names())
		}
	} else {
		// Set-while-disabled is a configuration contradiction, rejected
		// rather than silently ignored (the ShedConfig convention).
		if c.PrefixSec != 0 {
			return fmt.Errorf("core: edge PrefixSec %g set while the edge tier is disabled", c.PrefixSec)
		}
		if c.CacheMb != 0 {
			return fmt.Errorf("core: edge CacheMb %g set while the edge tier is disabled", c.CacheMb)
		}
		if c.CachePolicy != "" {
			return fmt.Errorf("core: edge CachePolicy %q set while the edge tier is disabled", c.CachePolicy)
		}
	}
	if c.Batch != "" && !HasBatchPolicy(c.Batch) {
		return fmt.Errorf("core: unknown batch policy %q (have %v)", c.Batch, BatchPolicyNames())
	}
	if !finite(c.BatchWindow) || c.BatchWindow < 0 {
		return fmt.Errorf("core: edge BatchWindow %g must be finite and non-negative", c.BatchWindow)
	}
	switch c.Batch {
	case BatchPatch:
		if c.Nodes > 0 {
			return fmt.Errorf("core: batch policy %q grafts onto whole-object streams and cannot run behind the edge tier (use %q)", BatchPatch, BatchBatchPrefix)
		}
	case BatchBatchPrefix:
		if c.Nodes == 0 {
			return fmt.Errorf("core: batch policy %q joins at the edge and requires the edge tier (Nodes > 0)", BatchBatchPrefix)
		}
		if c.BatchWindow <= 0 {
			return fmt.Errorf("core: batch policy %q requires a positive BatchWindow", BatchBatchPrefix)
		}
	case "", BatchUnicast:
		if c.BatchWindow != 0 {
			return fmt.Errorf("core: edge BatchWindow %g set without a sharing batch policy", c.BatchWindow)
		}
	}
	return nil
}

// CachePolicyName returns the effective edge cache-policy name.
func (c EdgeConfig) CachePolicyName() string {
	if c.CachePolicy != "" {
		return c.CachePolicy
	}
	return edge.PolicyStaticZipf
}

// resetEdge (re)builds the per-run edge-tier state: the per-video
// prefix sizes (PrefixSec of playback, clamped to the object) and one
// cache-policy instance per node, reusing instances across Reset when
// the shape is unchanged so pooled engines stay allocation-light.
func (e *Engine) resetEdge() {
	if e.cfg.Edge.Nodes == 0 {
		e.edgeCaches = e.edgeCaches[:0]
		e.edgeRR = 0
		return
	}
	n := e.cat.Len()
	e.edgePrefix = resize(e.edgePrefix, n)
	pref := e.cfg.Edge.PrefixSec * e.cfg.ViewRate
	for v := 0; v < n; v++ {
		size := e.cat.Video(v).Size
		if pref < size {
			e.edgePrefix[v] = pref
		} else {
			e.edgePrefix[v] = size
		}
	}
	name := e.cfg.Edge.CachePolicyName()
	if len(e.edgeCaches) != e.cfg.Edge.Nodes ||
		(len(e.edgeCaches) > 0 && e.edgeCaches[0].Name() != name) {
		e.edgeCaches = make([]edge.CachePolicy, e.cfg.Edge.Nodes)
		for i := range e.edgeCaches {
			e.edgeCaches[i] = edge.New(name)
		}
	}
	for _, c := range e.edgeCaches {
		c.Reset(e.edgePrefix, e.cfg.Edge.CacheMb)
	}
	e.edgeRR = 0
}

// edgeProbe consults the arrival's edge node and returns the prefix
// volume (Mb) the node serves locally — 0 on a miss or with the tier
// disabled. Node assignment is round-robin in arrival order, which is
// deterministic and allocation-free.
func (e *Engine) edgeProbe(v int) float64 {
	if len(e.edgeCaches) == 0 {
		return 0
	}
	node := e.edgeRR
	e.edgeRR++
	if e.edgeRR == len(e.edgeCaches) {
		e.edgeRR = 0
	}
	if e.edgeCaches[node].Hit(v) {
		return e.edgePrefix[v]
	}
	return 0
}

// edgeFullServe completes a request entirely at the edge: the cached
// prefix covers the whole object, so the cluster is never consulted.
// The request is accepted and completed in one step — it holds no
// server slot, draws no interaction, and never migrates.
func (e *Engine) edgeFullServe(v int, t float64, class int32, size float64) {
	e.metrics.Accepted++
	e.metrics.Completions++
	e.metrics.EdgeHits++
	e.metrics.EdgeMb += size
	if class >= 0 {
		e.metrics.ClassAccepted[class]++
	}
	if e.audit != nil {
		e.auditFail(e.audit.EdgeServe(t, int32(v), size, 0, 0, 0, size, false))
	}
}

package semicont

import (
	"fmt"

	"semicont/internal/core"
	"semicont/internal/edge"
)

// PlacementKind selects a static video placement strategy.
type PlacementKind int

// The placement strategies of Sections 3.2 and 4.4.
const (
	// EvenPlacement gives every video the same number of copies
	// (randomized rounding), oblivious to popularity.
	EvenPlacement PlacementKind = iota
	// PredictivePlacement allocates copies in proportion to perfectly
	// predicted popularity, at least one copy each.
	PredictivePlacement
	// PartialPredictivePlacement is even allocation plus a few extra
	// copies of the most popular videos — the paper's model of limited
	// prediction ability.
	PartialPredictivePlacement
)

// String implements fmt.Stringer.
func (k PlacementKind) String() string {
	switch k {
	case EvenPlacement:
		return "even"
	case PredictivePlacement:
		return "predictive"
	case PartialPredictivePlacement:
		return "partial-predictive"
	default:
		return fmt.Sprintf("PlacementKind(%d)", int(k))
	}
}

// UnlimitedHops configures migration without a per-request lifetime
// bound.
const UnlimitedHops = core.UnlimitedHops

// DefaultReceiveCap is the client receive bandwidth limit applied in
// the paper's staging experiments (Section 4.3), in Mb/s.
const DefaultReceiveCap = 30.0

// Policy bundles the three mechanisms under study: placement, dynamic
// request migration, and client staging. The paper's Figure 6 evaluates
// the eight combinations P1–P8; PaperPolicies returns them.
type Policy struct {
	// Name labels the policy in reports.
	Name string

	// Placement selects the static allocation strategy.
	Placement PlacementKind

	// PartialTopFraction and PartialExtra parameterize
	// PartialPredictivePlacement (zero values mean top 10%, +2 copies).
	PartialTopFraction float64
	PartialExtra       int

	// Migration enables DRM. MaxHops bounds lifetime migrations per
	// request (UnlimitedHops removes the bound); MaxChain bounds
	// migrations per arrival (the paper's "migration chain length").
	//
	// Zero-value convention, by design: with Migration set, MaxHops=0
	// and MaxChain=0 both mean "the paper's default of 1" — NOT "no
	// migrations" — so the zero Policy plus Migration reproduces the
	// paper. maxHops and maxChain are the only decoders of this
	// convention; core.MigrationConfig receives the decoded values
	// (there, 0 really means zero). Setting either field while
	// Migration is false is a validation error, not a silent no-op.
	Migration bool
	MaxHops   int
	MaxChain  int

	// SwitchDelay is the blackout a migrating stream suffers, in
	// seconds; the client buffer must cover it (0 = instantaneous).
	SwitchDelay float64

	// StagingFrac is the client staging buffer as a fraction of the
	// average video object size (the paper's "percentage buffer").
	// Zero disables workahead entirely.
	StagingFrac float64

	// ReceiveCap limits a client's receive bandwidth in Mb/s when
	// staging is on. Zero means DefaultReceiveCap; negative means
	// unlimited.
	ReceiveCap float64

	// Intermittent switches the server scheduler from the paper's
	// minimum-flow class to the intermittent class (Section 3.3):
	// streams with full buffers may be paused entirely so the server
	// can over-subscribe its slots. The heuristic admission rule risks
	// playback glitches, reported in Result.GlitchedStreams — this is
	// the ablation for the paper's choice of minimum-flow. Requires
	// StagingFrac > 0 (or a ClientMix with buffers).
	Intermittent bool

	// ResumeGuard is the intermittent scheduler's urgency threshold in
	// seconds of buffered playback (0 = the 30 s default).
	ResumeGuard float64

	// ClientMix, when non-empty, makes the client population
	// heterogeneous: each admitted request draws one class. It
	// overrides StagingFrac/ReceiveCap per client.
	ClientMix []ClientClass

	// Replicate enables dynamic replication: when a request is rejected,
	// the controller copies the video onto a server with storage room,
	// consuming spare source bandwidth, so future requests find an
	// extra replica — the resource-intensive alternative to DRM that
	// Section 3.1 mentions.
	Replicate bool

	// ReplicationRate caps one copy job's bandwidth in Mb/s
	// (0 = twice the view rate).
	ReplicationRate float64

	// Spare selects the workahead discipline: how spare bandwidth is
	// divided among staging candidates. EFTFSpare (default) is the
	// paper's algorithm; LFTFSpare and EvenSplitSpare are ablations of
	// the Theorem's scheduling rule.
	Spare SpareKind

	// Allocator is obsolete: Intermittent and Spare select the
	// scheduler. The field stays so existing callers compile; Validate
	// accepts only "" and AllocatorEFTF, the latter while Intermittent
	// and Spare hold their defaults.
	Allocator string

	// Selector names the admission controller's server-selection policy
	// by name (see SelectorNames). Empty means least-loaded, the paper's
	// Section 3.2 assignment rule. All selectors are deterministic given
	// the scenario seed (random-feasible draws from a split seed stream).
	Selector string

	// Planner is obsolete: MaxChain bounds the DRM chain search (1 is
	// a single move). The field stays so existing callers compile;
	// Validate accepts only "".
	Planner string

	// PatchWindowSec is obsolete: BatchPolicyPatch with BatchWindowSec
	// enables multicast patching. The field stays so existing callers
	// compile; Validate accepts only 0.
	PatchWindowSec float64

	// EdgeNodes, when positive, puts an edge/proxy tier of that many
	// nodes in front of the cluster: each node holds the first
	// EdgePrefixSec seconds of selected videos in an EdgeCacheMb byte
	// budget and serves those prefixes locally, so the cluster streams
	// only the suffix of a hit title (or nothing when the cached prefix
	// covers the whole video). Arrivals probe nodes round-robin.
	// EdgeNodes > 0 requires EdgePrefixSec > 0 and EdgeCacheMb > 0;
	// setting any of the other edge fields while EdgeNodes is zero is a
	// validation error, not a silent no-op.
	EdgeNodes     int
	EdgePrefixSec float64
	EdgeCacheMb   float64

	// EdgeCachePolicy names the per-node prefix-cache policy by name
	// (see EdgeCachePolicyNames). Empty means static-zipf, the
	// provisioned greedy fill in popularity order.
	EdgeCachePolicy string

	// BatchPolicy names the multicast batching policy by name (see
	// BatchPolicyNames): how concurrent requests for one title
	// share a cluster stream. Empty means "unicast". "patch" is classic
	// multicast patching: a new request for a video already streaming
	// taps that transmission and receives only the missed prefix as a
	// short unicast patch, if the prefix fits both BatchWindowSec and
	// the client's staging buffer; "batch-prefix" joins an ongoing
	// suffix stream while the edge prefix absorbs the catch-up, and
	// requires EdgeNodes > 0 and BatchWindowSec > 0. Non-unicast
	// policies are incompatible with Intermittent and PauseProb.
	BatchPolicy string

	// BatchWindowSec is the batching window in seconds of playback for
	// BatchPolicy ("patch": 0 means 20 minutes; "batch-prefix" requires
	// it). Setting it without a batching BatchPolicy is an error.
	BatchWindowSec float64

	// RetryQueue enables the admission retry queue: a rejected arrival
	// waits (modeling client patience) and re-attempts admission every
	// RetryBackoffSec seconds until RetryPatienceSec expires, at which
	// point it reneges — accounted in Result.Reneged, separately from
	// up-front rejections. RetryMaxQueue bounds the queue (0 = 64);
	// overflow rejects immediately. Zero durations mean 10 s backoff
	// and 300 s patience.
	RetryQueue       bool
	RetryMaxQueue    int
	RetryPatienceSec float64
	RetryBackoffSec  float64

	// DegradedPlayback enables degraded-mode playback: a stream whose
	// server fails with no rescue target keeps playing from its client
	// staging buffer and retries reconnection every DegradedRetrySec
	// seconds (0 = 5 s); only when the buffer runs dry does the viewer
	// see a glitch and the stream count as dropped. Meaningful only
	// with client staging buffers (without buffered data streams drop
	// immediately, as before).
	DegradedPlayback bool
	DegradedRetrySec float64

	// PauseProb enables viewer interactivity: the probability that a
	// viewing pauses once, at a uniformly random playback point, for a
	// uniform duration in [MinPauseSec, MaxPauseSec]. The paper's EFTF
	// optimality theorem assumes no pauses; this knob measures what
	// interactivity does to the mechanisms (future work, Section 6).
	PauseProb   float64
	MinPauseSec float64
	MaxPauseSec float64

	// Classes, when non-empty, partitions arrivals into traffic classes
	// (at most MaxTrafficClasses; index 0 is the highest-priority tier,
	// never shed). Each arrival draws a class by Share from a split
	// seed stream; the class can override the admission selector and
	// retry patience, and is the unit the shed controller acts on.
	Classes []TrafficClass

	// ShedWatermark, when positive, enables graceful load shedding: at
	// every arrival the controller compares instantaneous utilization
	// (minimum-flow committed bandwidth over live effective capacity)
	// against this watermark in (0, 1], and at or above it rejects
	// arrivals of every class but class 0 up front — before the retry
	// queue and before replication reacts. Requires at least two
	// Classes (with fewer there is nothing to differentiate).
	ShedWatermark float64
}

// MaxTrafficClasses mirrors the engine's bound on Policy.Classes.
const MaxTrafficClasses = core.MaxTrafficClasses

// TrafficClass is one priority tier of the arrival stream (see
// Policy.Classes).
type TrafficClass struct {
	// Name labels the class in reports ("premium", "standard", …).
	Name string
	// Share is the class's relative frequency among arrivals.
	Share float64
	// Selector optionally overrides the admission selector for this
	// class by name (empty = the policy's selector).
	Selector string
	// RetryPatienceSec optionally overrides the retry-queue patience
	// for this class (0 = the policy's RetryPatienceSec default);
	// premium tiers typically wait longer.
	RetryPatienceSec float64
}

// SpareKind is the engine's spare-bandwidth discipline.
type SpareKind = core.SpareDiscipline

// Workahead disciplines for Policy.Spare.
const (
	// EFTFSpare is Earliest Finishing Time First (the paper's Fig. 2).
	EFTFSpare = core.EFTF
	// LFTFSpare is Latest Finishing Time First, the adversarial
	// opposite used by the A-EFTF ablation.
	LFTFSpare = core.LFTF
	// EvenSplitSpare divides spare bandwidth equally (water-filling).
	EvenSplitSpare = core.EvenSplit
)

// AllocatorEFTF names minimum-flow plus Earliest-Finishing-Time-First
// workahead (the paper's Figure 2 algorithm), the one value the obsolete
// Policy.Allocator still accepts.
const AllocatorEFTF = core.AllocMinFlowEFTF

// Names of the engine's admission selectors, usable as Policy.Selector.
const (
	// SelectorLeastLoaded admits on the feasible replica holder with
	// the fewest streams (Section 3.2's rule; the default).
	SelectorLeastLoaded = core.SelectorLeastLoaded
	// SelectorFirstFit admits on the first feasible holder in replica
	// order — the simplest controller.
	SelectorFirstFit = core.SelectorFirstFit
	// SelectorMostHeadroom admits on the feasible holder with the most
	// uncommitted bandwidth (differs from least-loaded only on
	// heterogeneous clusters).
	SelectorMostHeadroom = core.SelectorMostHeadroom
	// SelectorRandomFeasible admits uniformly at random among feasible
	// holders, seeded from the scenario's split-RNG streams.
	SelectorRandomFeasible = core.SelectorRandomFeasible
)

// SelectorNames returns the engine's admission selectors, sorted by
// name.
func SelectorNames() []string { return core.SelectorNames() }

// Names of the engine's multicast batching policies, usable as
// Policy.BatchPolicy.
const (
	// BatchPolicyUnicast streams every admitted request on its own
	// unicast channel (the default).
	BatchPolicyUnicast = core.BatchUnicast
	// BatchPolicyPatch is classic multicast patching: tap an ongoing
	// transmission and receive the missed prefix as a unicast patch.
	BatchPolicyPatch = core.BatchPatch
	// BatchPolicyBatchPrefix joins an ongoing cluster suffix stream
	// while the edge-cached prefix absorbs the catch-up; requires the
	// edge tier.
	BatchPolicyBatchPrefix = core.BatchBatchPrefix
)

// BatchPolicyNames returns the engine's multicast batching policies,
// sorted by name.
func BatchPolicyNames() []string { return core.BatchPolicyNames() }

// Names of the edge prefix-cache policies, usable as
// Policy.EdgeCachePolicy.
const (
	// EdgeCacheStaticZipf pins prefixes at run start in popularity
	// order (greedy fill; the default).
	EdgeCacheStaticZipf = edge.PolicyStaticZipf
	// EdgeCacheLRU starts empty and fills on demand with
	// least-recently-used eviction.
	EdgeCacheLRU = edge.PolicyLRU
)

// EdgeCachePolicyNames returns the edge prefix-cache policies, sorted
// by name.
func EdgeCachePolicyNames() []string { return edge.Names() }

// ClientClass is one kind of client in a heterogeneous population
// (e.g. set-top boxes with disks vs. thin clients without).
type ClientClass struct {
	// Weight is the class's relative frequency.
	Weight float64
	// StagingFrac is this class's buffer as a fraction of the average
	// object size (0 = no staging buffer).
	StagingFrac float64
	// ReceiveCap is this class's receive bandwidth in Mb/s
	// (0 = unlimited).
	ReceiveCap float64
}

// maxHops returns the effective hops bound.
func (p Policy) maxHops() int {
	if p.MaxHops == 0 {
		return 1
	}
	return p.MaxHops
}

// maxChain returns the effective chain bound.
func (p Policy) maxChain() int {
	if p.MaxChain == 0 {
		return 1
	}
	return p.MaxChain
}

// receiveCap returns the effective client receive cap (0 = unlimited).
func (p Policy) receiveCap() float64 {
	switch {
	case p.ReceiveCap < 0:
		return 0
	case p.ReceiveCap == 0:
		return DefaultReceiveCap
	default:
		return p.ReceiveCap
	}
}

// validate reports errors in the Policy's own spellings: the
// conventions Run decodes before the engine sees a value (zero meaning
// a default, a negative cap meaning unlimited, an obsolete field left at
// its no-op value). What the engine and the placement accept is theirs to
// check; Scenario.Validate applies their validators to what Run builds,
// since receive caps, for one, are bounded by the System's view rate.
func (p Policy) validate() error {
	switch {
	case p.Allocator != "" && (p.Allocator != AllocatorEFTF || p.Intermittent || p.Spare != EFTFSpare):
		return fmt.Errorf("semicont: Allocator %q is obsolete: select the scheduler with Intermittent and Spare, and leave Allocator empty", p.Allocator)
	case p.Planner != "":
		return fmt.Errorf("semicont: Planner %q is obsolete: bound the DRM chain with MaxChain (1 is a single move), and leave Planner empty", p.Planner)
	case p.PatchWindowSec != 0:
		return fmt.Errorf("semicont: PatchWindowSec is obsolete: set BatchPolicy=%q with BatchWindowSec, and leave PatchWindowSec 0", BatchPolicyPatch)
	case p.Placement < EvenPlacement || p.Placement > PartialPredictivePlacement:
		return fmt.Errorf("semicont: unknown placement %d", int(p.Placement))
	case !finite(p.StagingFrac) || p.StagingFrac < 0:
		return fmt.Errorf("semicont: negative StagingFrac %g", p.StagingFrac)
	case !p.Migration && (p.MaxHops != 0 || p.MaxChain != 0):
		return fmt.Errorf("semicont: MaxHops=%d/MaxChain=%d set while Migration is disabled (enable Migration or leave them zero)", p.MaxHops, p.MaxChain)
	case !finite(p.ReceiveCap):
		return fmt.Errorf("semicont: ReceiveCap %g must be finite", p.ReceiveCap)
	case !finite(p.ShedWatermark) || p.ShedWatermark < 0 || p.ShedWatermark > 1:
		return fmt.Errorf("semicont: ShedWatermark %g outside [0, 1]", p.ShedWatermark)
	}
	for i, c := range p.ClientMix {
		if !finite(c.StagingFrac) || c.StagingFrac < 0 {
			return fmt.Errorf("semicont: client class %d has negative StagingFrac %g", i, c.StagingFrac)
		}
	}
	return nil
}

// The eight policies of the paper's Figure 6. P1–P4 are oblivious to
// popularity (even placement); P5–P8 assume perfect prediction. Within
// each group the four combinations of migration and 20% client staging
// are covered.

// PolicyP1 returns even placement, no migration, no staging.
func PolicyP1() Policy {
	return Policy{Name: "P1", Placement: EvenPlacement}
}

// PolicyP2 returns even placement, no migration, 20% staging.
func PolicyP2() Policy {
	return Policy{Name: "P2", Placement: EvenPlacement, StagingFrac: 0.2}
}

// PolicyP3 returns even placement with migration, no staging.
func PolicyP3() Policy {
	return Policy{Name: "P3", Placement: EvenPlacement, Migration: true}
}

// PolicyP4 returns even placement with migration and 20% staging.
func PolicyP4() Policy {
	return Policy{Name: "P4", Placement: EvenPlacement, Migration: true, StagingFrac: 0.2}
}

// PolicyP5 returns predictive placement, no migration, no staging.
func PolicyP5() Policy {
	return Policy{Name: "P5", Placement: PredictivePlacement}
}

// PolicyP6 returns predictive placement, no migration, 20% staging.
func PolicyP6() Policy {
	return Policy{Name: "P6", Placement: PredictivePlacement, StagingFrac: 0.2}
}

// PolicyP7 returns predictive placement with migration, no staging.
func PolicyP7() Policy {
	return Policy{Name: "P7", Placement: PredictivePlacement, Migration: true}
}

// PolicyP8 returns predictive placement with migration and 20% staging.
func PolicyP8() Policy {
	return Policy{Name: "P8", Placement: PredictivePlacement, Migration: true, StagingFrac: 0.2}
}

// PaperPolicies returns P1–P8 in order.
func PaperPolicies() []Policy {
	return []Policy{
		PolicyP1(), PolicyP2(), PolicyP3(), PolicyP4(),
		PolicyP5(), PolicyP6(), PolicyP7(), PolicyP8(),
	}
}

package core

// Metrics accumulates the quantities the paper reports plus supporting
// counters for validation and the extension experiments.
type Metrics struct {
	Arrivals int64 // requests offered
	Accepted int64 // requests admitted
	Rejected int64 // requests turned away

	// AcceptedBytes is the sum of the sizes of all accepted
	// transmissions in Mb — the numerator of the paper's utilization
	// metric ("we sum the size of all transmissions", Section 4.1).
	AcceptedBytes float64

	// DeliveredBytes is the volume actually transmitted, accumulated as
	// requests finish or are dropped. When a run drains completely and
	// no failures occur it equals AcceptedBytes; tests use this as a
	// conservation check.
	DeliveredBytes float64

	Completions int64 // transmissions fully delivered

	// Migration accounting.
	Migrations       int64 // individual request moves (incl. rescues)
	AdmissionsViaDRM int64 // arrivals admitted only thanks to migration
	ChainLengthTotal int64 // Σ chain lengths over DRM admissions
	MaxChainUsed     int   // longest chain actually executed

	// MigrationsRefusedByBuffer counts the SwitchDelay buffer vetoes of
	// the slots the planner examines. planDirect skips a slot whose
	// title it already knows has no target before its buffer test, so
	// such a slot is never counted. Core-only: Result does not carry it.
	MigrationsRefusedByBuffer int64

	// GlitchedStreams counts streams whose playback buffer ran dry
	// while paused by the intermittent scheduler (always zero under
	// minimum-flow scheduling, whose admission rule guarantees
	// continuous playback).
	GlitchedStreams int64

	// ViewerPauses counts interactivity pause events applied to live
	// transmissions.
	ViewerPauses int64

	// Patching accounting: PatchedJoins counts requests served by
	// tapping an ongoing transmission; SharedMb is the data those
	// clients received over the shared stream (delivered without
	// consuming server bandwidth; not part of AcceptedBytes).
	PatchedJoins int64
	SharedMb     float64

	// Edge-tier accounting (all exactly zero when Edge.Nodes == 0).
	// EdgeHits counts requests whose video prefix was served from an
	// edge cache (including full-cache serves and batched joins);
	// BatchedJoins counts the subset served by joining an ongoing
	// suffix stream under the batch-prefix policy. EdgeMb is the
	// volume the edge tier delivered (cached prefixes plus relayed
	// catch-ups; never part of AcceptedBytes or DeliveredBytes).
	// ClusterEgressMb mirrors DeliveredBytes bit-for-bit on edge runs
	// so the quantity the tier is built to cut is named and audited.
	EdgeHits        int64
	BatchedJoins    int64
	EdgeMb          float64
	ClusterEgressMb float64

	// Replication accounting.
	ReplicationsStarted   int64   // copy jobs begun
	ReplicationsCompleted int64   // replicas installed
	ReplicationsAborted   int64   // copies cancelled by failures
	ReplicationsDeferred  int64   // copy starts skipped (in-flight dup, no source, or no target); the next rejection retries
	ReplicatedMb          float64 // replica bytes moved

	// Failure accounting.
	Failures       int64 // server failure events
	RescuedStreams int64 // streams migrated off a failing server
	DroppedStreams int64 // streams lost because no rescue target existed

	// Recovery accounting.
	Recoveries     int64 // servers rejoining the cluster
	ColdRecoveries int64 // recoveries with storage wiped (replicas lost)

	// Admission retry-queue accounting. Every queued request either
	// gets admitted eventually or reneges, so
	// RetriesQueued == RetriedAdmissions + Reneged once a run drains.
	RetriesQueued     int64 // rejected arrivals parked in the retry queue
	RetriedAdmissions int64 // queued requests admitted on a later attempt
	Reneged           int64 // queued requests whose patience expired

	// Degraded-mode playback accounting. A parking episode ends in a
	// readmission or a buffer-dry glitch, so
	// DegradedParked == DegradedResumed + DegradedGlitches after drain.
	DegradedParked   int64 // streams parked at failure, playing from buffer
	DegradedResumed  int64 // parked streams readmitted to a server
	DegradedGlitches int64 // parked streams whose buffer ran dry (dropped)

	// Brownout accounting: every brownout is eventually restored, so
	// Brownouts == BrownoutRestores once the schedule drains (a run may
	// end with a restore still pending past the horizon).
	Brownouts        int64 // servers dimmed to a fraction of capacity
	BrownoutRestores int64 // servers returned to full capacity

	// Overload-shedding accounting. SheddingActivated counts the shed
	// controller's normal→shedding transitions; the per-class arrays
	// below (indexed by Config.Classes, all-zero on classless runs) are
	// fixed-size so Metrics stays comparable. Per class,
	// ClassArrivals == ClassAccepted + ClassRejected + ClassReneged
	// after drain, and ClassShed ⊆ ClassRejected counts the rejections
	// the shed controller made up front.
	SheddingActivated int64
	ClassArrivals     [MaxTrafficClasses]int64
	ClassAccepted     [MaxTrafficClasses]int64
	ClassRejected     [MaxTrafficClasses]int64
	ClassReneged      [MaxTrafficClasses]int64
	ClassShed         [MaxTrafficClasses]int64
}

// Utilization returns delivered load as a fraction of cluster capacity
// over the horizon: Σ accepted sizes / (total bandwidth × horizon).
func (m *Metrics) Utilization(totalBandwidth, horizon float64) float64 {
	if totalBandwidth <= 0 || horizon <= 0 {
		return 0
	}
	return m.AcceptedBytes / (totalBandwidth * horizon)
}

// RejectionRatio returns the fraction of arrivals rejected.
func (m *Metrics) RejectionRatio() float64 {
	if m.Arrivals == 0 {
		return 0
	}
	return float64(m.Rejected) / float64(m.Arrivals)
}

// Observer receives engine lifecycle notifications; internal/trace
// implements it to record event logs. All methods are called with the
// simulation time first. Implementations must not retain pointers into
// the engine.
type Observer interface {
	OnAdmit(t float64, reqID int64, video, server int, viaMigration bool)
	OnReject(t float64, video int)
	OnMigrate(t float64, reqID int64, video, from, to int, rescue bool)
	OnFinish(t float64, reqID int64, video, server int)
	// OnFailure reports a server failure: rescued streams migrated away,
	// dropped streams were lost, parked streams entered degraded-mode
	// playback from their client buffers.
	OnFailure(t float64, server int, rescued, dropped, parked int)
	// OnRecovery reports a failed server rejoining; cold means its
	// storage was wiped and its replicas must be rebuilt.
	OnRecovery(t float64, server int, cold bool)
	// OnReplicate reports a dynamic replica of video installed on
	// server `to`, copied from server `from`.
	OnReplicate(t float64, video, from, to int)
}

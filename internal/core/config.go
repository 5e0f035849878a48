// Package core implements the paper's primary contribution: the
// semi-continuous transmission engine for a cluster-based video server.
// It combines
//
//   - a fluid-flow discrete-event model of servers, clients, and
//     constant-bit-rate playback,
//   - minimum-flow admission control (every unfinished request is
//     guaranteed at least the view bandwidth, Section 3.3),
//   - the EFTF (Earliest Finishing Time First) workahead scheduler that
//     stages data into client buffers with spare server bandwidth
//     (Figure 2 of the paper),
//   - dynamic request migration (DRM) between servers at admission time
//     (Section 3.1), including the chain-length and hops-per-request
//     limits studied in Section 4.2, and
//   - server failure injection with DRM-based stream rescue (the
//     fault-tolerance use of migration the paper points out).
//
// The engine is deterministic: given the same configuration, placement,
// and arrival stream it produces bit-identical results.
package core

import (
	"fmt"
	"math"
)

// finite reports whether v is an ordinary number. NaN and ±Inf slip
// through ordered comparisons like v < 0, so Validate checks explicitly.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// UnlimitedHops configures migration with no per-request lifetime limit
// (the "unrestricted hops per request" curves of Figure 4).
const UnlimitedHops = -1

// MigrationConfig controls dynamic request migration.
type MigrationConfig struct {
	// Enabled turns DRM on. When off, arrivals finding every replica
	// holder full are rejected outright.
	Enabled bool

	// MaxHops bounds how many times a single request may be migrated
	// during its lifetime. 1 reproduces the paper's "hops per request =
	// 1"; UnlimitedHops removes the bound. 0 with Enabled==true permits
	// no migrations at all.
	MaxHops int

	// MaxChain bounds how many requests may be migrated to accommodate
	// one incoming request (the paper's "migration chain length", kept
	// at one throughout its experiments). Values above one enable the
	// recursive chain search ablation.
	MaxChain int

	// SwitchDelay is the time a migrating stream receives no data while
	// the transmission is re-established on the new server. A migration
	// is only legal if the client's buffer holds at least
	// SwitchDelay × view-rate of data, since playback must continue from
	// the buffer during the switch (Section 3.1's jitter argument).
	// Zero (the paper's assumption) makes switching instantaneous.
	SwitchDelay float64
}

// Validate reports configuration errors. The hop and chain bounds are
// checked only with migration on; SwitchDelay always.
func (m MigrationConfig) Validate() error {
	if !finite(m.SwitchDelay) || m.SwitchDelay < 0 {
		return fmt.Errorf("core: SwitchDelay %g must be finite and non-negative", m.SwitchDelay)
	}
	if !m.Enabled {
		return nil
	}
	if m.MaxHops < UnlimitedHops {
		return fmt.Errorf("core: MaxHops %d (use UnlimitedHops=-1 for no bound)", m.MaxHops)
	}
	if m.MaxChain < 1 {
		return fmt.Errorf("core: MaxChain must be at least 1, got %d", m.MaxChain)
	}
	return nil
}

// SpareDiscipline selects how spare server bandwidth is divided among
// staging candidates. The paper's Theorem (Section 3.3) proves EFTF
// optimal among minimum-flow algorithms when client receive bandwidth
// is unbounded; the alternatives exist to measure the theorem's value
// empirically (ablation A-EFTF).
type SpareDiscipline uint8

const (
	// EFTF gives spare bandwidth to the earliest projected finisher
	// first (the paper's Figure 2 algorithm). The default.
	EFTF SpareDiscipline = iota
	// LFTF gives spare bandwidth to the latest projected finisher
	// first — the adversarial opposite of EFTF.
	LFTF
	// EvenSplit divides spare bandwidth equally among all staging
	// candidates regardless of progress.
	EvenSplit
)

// String implements fmt.Stringer.
func (d SpareDiscipline) String() string {
	switch d {
	case EFTF:
		return "eftf"
	case LFTF:
		return "lftf"
	case EvenSplit:
		return "even-split"
	default:
		return fmt.Sprintf("SpareDiscipline(%d)", uint8(d))
	}
}

// ClientClass describes one kind of client in a heterogeneous client
// population (the paper's future-work observation that "client resource
// capabilities can vary"). Each admitted request draws a class with
// probability proportional to Weight.
type ClientClass struct {
	// Weight is the class's relative frequency (need not sum to 1).
	Weight float64
	// BufferCapacity is this class's staging buffer in Mb (0 = none).
	BufferCapacity float64
	// ReceiveCap is this class's receive bandwidth in Mb/s
	// (0 = unlimited).
	ReceiveCap float64
}

// MaxTrafficClasses bounds the number of traffic classes one run may
// configure. Per-class metrics are fixed-size arrays of this length so
// Metrics (and the Result types built from it) stay comparable.
const MaxTrafficClasses = 4

// TrafficClass describes one priority tier of the arriving traffic
// (premium, standard, …). Unlike ClientClass — which varies client
// *capabilities* — a traffic class varies the *policy* applied to the
// request: its admission selector, its retry patience, and whether the
// shed controller may reject it under overload. Classes are ordered by
// priority: index 0 is the highest and is never shed.
type TrafficClass struct {
	// Name labels the class in reports ("premium"). Informational.
	Name string

	// Share is the class's relative arrival frequency (need not sum
	// to 1 across classes). Must be positive.
	Share float64

	// Selector optionally names this class's admission selector (see
	// SelectorNames). Empty inherits Config.Selector.
	Selector string

	// RetryPatience optionally overrides Retry.Patience for this
	// class's queued requests, in seconds. Zero inherits the global
	// patience; premium tiers typically wait longer.
	RetryPatience float64
}

// ShedConfig controls graceful load shedding: above a utilization
// watermark the controller rejects low-class arrivals up front —
// before admission, the retry queue, or replication — so the capacity
// that remains serves the high classes. The controller is a two-state
// machine (normal/shedding) re-evaluated at every arrival; entering the
// shedding state increments Metrics.SheddingActivated.
type ShedConfig struct {
	// Enabled turns the shed controller on. Requires at least two
	// traffic classes — with fewer there is no low class to shed.
	Enabled bool

	// Watermark is the instantaneous utilization (committed minimum-flow
	// bandwidth over live effective capacity) at or above which shedding
	// engages. Must be in (0,1].
	Watermark float64
}

// Validate reports configuration errors.
func (s ShedConfig) Validate() error {
	if !s.Enabled {
		if s.Watermark != 0 {
			return fmt.Errorf("core: shed Watermark %g set while shedding is disabled", s.Watermark)
		}
		return nil
	}
	if math.IsNaN(s.Watermark) || s.Watermark <= 0 || s.Watermark > 1 {
		return fmt.Errorf("core: shed Watermark %g must be in (0,1]", s.Watermark)
	}
	return nil
}

// Config describes one cluster simulation.
type Config struct {
	// ServerBandwidth lists each data server's transmission capacity in
	// Mb/s. Homogeneous clusters repeat one value; the heterogeneity
	// experiments vary entries while preserving the total.
	ServerBandwidth []float64

	// ViewRate is b_view, the constant playback rate in Mb/s (3 Mb/s in
	// every experiment of the paper).
	ViewRate float64

	// BufferCapacity is each client's staging buffer in Mb. The paper
	// expresses it as a percentage of the average video object size;
	// callers convert. Zero disables staging entirely.
	BufferCapacity float64

	// ReceiveCap limits the rate at which one client can receive data,
	// in Mb/s (30 Mb/s in the staging experiments, Section 4.3). Zero
	// means unlimited. Only meaningful with Workahead.
	ReceiveCap float64

	// Workahead enables the EFTF scheduler: spare server bandwidth is
	// sent ahead of playback into client buffers. When false every
	// transmission proceeds at exactly ViewRate (pure continuous
	// transmission).
	Workahead bool

	// Spare selects the workahead discipline (default EFTF, the
	// paper's algorithm; LFTF and EvenSplit are ablations).
	Spare SpareDiscipline

	// Allocator is obsolete: Intermittent and Spare select the
	// scheduler. The field stays so existing callers compile; Validate
	// accepts only "" and AllocMinFlowEFTF, the latter while
	// Intermittent and Spare hold their defaults.
	Allocator string

	// Selector names the admission server-selection policy (see
	// SelectorNames). Empty selects SelectorLeastLoaded, the paper's
	// Section 3.2 assignment rule.
	Selector string

	// Planner is obsolete: Migration.MaxChain bounds the DRM chain
	// search. The field stays so existing callers compile; Validate
	// accepts only "".
	Planner string

	// SelectorSeed seeds randomized selectors (SelectorRandomFeasible);
	// runs with equal seeds draw the same selection sequence. The
	// default selector and each traffic class's override draw from
	// distinct streams split off it. Deterministic selectors ignore it.
	SelectorSeed uint64

	// ClientClasses, when non-empty, makes the client population
	// heterogeneous: each admitted request draws a class (seeded by
	// ClientSeed) whose buffer and receive cap override BufferCapacity
	// and ReceiveCap. Workahead still gates staging globally.
	ClientClasses []ClientClass

	// ClientSeed seeds the class draw; runs with equal seeds draw the
	// same class sequence.
	ClientSeed uint64

	// Classes, when non-empty, partitions arrivals into priority tiers:
	// each arrival draws a traffic class (seeded by ClassSeed, its own
	// split stream) that picks its admission selector and retry
	// patience, and feeds the per-class accounting the shed controller
	// acts on. Index 0 is the highest priority. At most
	// MaxTrafficClasses entries.
	Classes []TrafficClass

	// ClassSeed seeds the traffic-class draw; runs with equal seeds
	// draw the same class sequence.
	ClassSeed uint64

	// Shed configures graceful load shedding over the traffic classes.
	Shed ShedConfig

	// Migration configures DRM.
	Migration MigrationConfig

	// Replication configures dynamic replica creation on rejection.
	Replication ReplicationConfig

	// Edge configures the proxy tier in front of the cluster — edge
	// nodes with bounded prefix caches serve the head of hot titles
	// locally (see edge.go) — and the batching policy by which
	// concurrent requests share cluster streams: multicast patching
	// with unicast prefix patches (related-work technique; Section 6
	// future work), or edge hits sharing one cluster suffix stream
	// (see batch.go).
	Edge EdgeConfig

	// Retry configures the bounded admission retry queue (fault
	// tolerance: rejected requests wait and re-enter admission).
	Retry RetryConfig

	// Degraded configures degraded-mode playback on failure (streams
	// with staged data park and drain their buffers instead of dropping).
	Degraded DegradedConfig

	// Interactivity lets viewers pause mid-play (the situation excluded
	// by the paper's EFTF optimality theorem — "if the videos are not
	// paused" — and raised as future work in Section 6). A paused
	// viewer stops draining its buffer; transmission continues while
	// the buffer has room and stops when it is full, resuming with
	// playback.
	Interactivity InteractivityConfig

	// ServerStorage lists per-server storage capacities in Mb, used by
	// dynamic replication to decide where new replicas fit. Empty means
	// unbounded storage. Static placement capacity is enforced by the
	// placement package regardless.
	ServerStorage []float64

	// Intermittent switches the scheduler from the paper's minimum-flow
	// class to the intermittent class (Section 3.3): a stream may be
	// paused entirely while its client plays from the staging buffer,
	// letting the server admit more streams than its minimum-flow slot
	// count. The paper notes the optimal intermittent admission test is
	// impractical; this implements the natural heuristic — admit when
	// the streams that *must* transmit (buffer below ResumeGuard) leave
	// a slot free, pause the streams with the fullest buffers first —
	// and counts the playback glitches the heuristic risks
	// (Metrics.GlitchedStreams). Requires Workahead and a non-zero
	// buffer to be useful.
	Intermittent bool

	// ResumeGuard is how many seconds of playback must remain buffered
	// before a paused stream is considered urgent again (default 30 s).
	// Smaller guards admit more aggressively but glitch more.
	ResumeGuard float64

	// Shards is obsolete: within-run parallelism was removed and every
	// run uses the one serial engine. The field stays so existing
	// callers compile; Validate accepts only 0 and 1.
	Shards int
}

// RetryConfig controls the admission retry queue: rejected requests
// wait (bounded patience, periodic backoff) and re-enter admission —
// including DRM and, through the rejection path, dynamic replication —
// instead of being lost instantly. The queue models clients that retry
// during a transient outage; a request whose patience expires before a
// slot opens reneges, accounted separately from instant rejections
// (Metrics.Reneged vs Metrics.Rejected).
type RetryConfig struct {
	// Enabled turns the retry queue on. When off, rejections are final
	// (the historical behaviour).
	Enabled bool

	// MaxQueue bounds the number of waiting requests; arrivals rejected
	// while the queue is full are rejected outright. Zero means 64.
	MaxQueue int

	// Patience is how long one request waits before reneging, in
	// seconds. Zero means 300.
	Patience float64

	// Backoff is the interval between admission re-attempts, in seconds.
	// Zero means 10.
	Backoff float64
}

// Validate reports configuration errors, whether or not the queue is
// enabled.
func (r RetryConfig) Validate() error {
	if r.MaxQueue < 0 {
		return fmt.Errorf("core: negative retry MaxQueue %d", r.MaxQueue)
	}
	if !finite(r.Patience) || r.Patience < 0 {
		return fmt.Errorf("core: retry Patience %g must be finite and non-negative", r.Patience)
	}
	if !finite(r.Backoff) || r.Backoff < 0 {
		return fmt.Errorf("core: retry Backoff %g must be finite and non-negative", r.Backoff)
	}
	return nil
}

// DegradedConfig controls degraded-mode playback: when a server fails
// and a stream finds no rescue target able to grant the full b_view
// minimum flow, the stream is parked instead of dropped — its client
// keeps playing from the staged workahead buffer at view rate, and the
// controller periodically re-attempts admission. Only when the buffer
// runs dry does the viewer glitch and the stream count as dropped. This
// turns EFTF staging (which fills buffers earliest) into a measurable
// robustness mechanism.
type DegradedConfig struct {
	// Enabled turns parking on. Streams with no buffered data (or
	// pinned by patching, or mid-switch) are dropped as before.
	Enabled bool

	// RetryInterval is the spacing of readmission attempts for a parked
	// stream, in seconds. Zero means 5.
	RetryInterval float64
}

// Validate reports configuration errors, whether or not parking is
// enabled.
func (d DegradedConfig) Validate() error {
	if !finite(d.RetryInterval) || d.RetryInterval < 0 {
		return fmt.Errorf("core: degraded-playback retry interval %g must be finite and non-negative", d.RetryInterval)
	}
	return nil
}

// InteractivityConfig controls viewer pause behaviour.
type InteractivityConfig struct {
	// PauseProb is the probability that a given viewing pauses once at
	// a uniformly random point of its playback. Zero disables
	// interactivity.
	PauseProb float64
	// MinPause and MaxPause bound the uniformly distributed pause
	// duration in seconds.
	MinPause float64
	MaxPause float64
	// Seed decouples the interaction draws from other random streams.
	Seed uint64
}

// Validate reports configuration errors.
func (i InteractivityConfig) Validate() error {
	if !(i.PauseProb >= 0 && i.PauseProb <= 1) {
		return fmt.Errorf("core: PauseProb %g outside [0,1]", i.PauseProb)
	}
	if i.PauseProb > 0 && !(finite(i.MinPause) && finite(i.MaxPause) && i.MinPause > 0 && i.MaxPause >= i.MinPause) {
		return fmt.Errorf("core: invalid pause duration range [%g, %g]", i.MinPause, i.MaxPause)
	}
	return nil
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.ServerBandwidth) == 0 {
		return fmt.Errorf("core: no servers configured")
	}
	if c.ViewRate <= 0 {
		return fmt.Errorf("core: ViewRate must be positive, got %g", c.ViewRate)
	}
	for i, b := range c.ServerBandwidth {
		if b < c.ViewRate {
			return fmt.Errorf("core: server %d bandwidth %g below view rate %g (cannot serve any stream)", i, b, c.ViewRate)
		}
		if !finite(b) {
			return fmt.Errorf("core: server %d bandwidth %g invalid", i, b)
		}
	}
	if c.BufferCapacity < 0 {
		return fmt.Errorf("core: negative BufferCapacity %g", c.BufferCapacity)
	}
	if c.ReceiveCap < 0 {
		return fmt.Errorf("core: negative ReceiveCap %g", c.ReceiveCap)
	}
	if c.Workahead && c.ReceiveCap > 0 && c.ReceiveCap < c.ViewRate {
		return fmt.Errorf("core: ReceiveCap %g below ViewRate %g", c.ReceiveCap, c.ViewRate)
	}
	totalWeight := 0.0
	for i, cl := range c.ClientClasses {
		if !finite(cl.Weight) || cl.Weight < 0 {
			return fmt.Errorf("core: client class %d has weight %g", i, cl.Weight)
		}
		if cl.BufferCapacity < 0 {
			return fmt.Errorf("core: client class %d has buffer %g", i, cl.BufferCapacity)
		}
		if !finite(cl.ReceiveCap) || cl.ReceiveCap < 0 || (cl.ReceiveCap > 0 && cl.ReceiveCap < c.ViewRate) {
			return fmt.Errorf("core: client class %d receive cap %g must be finite, and zero or at least the view rate %g", i, cl.ReceiveCap, c.ViewRate)
		}
		totalWeight += cl.Weight
	}
	if len(c.ClientClasses) > 0 && totalWeight <= 0 {
		return fmt.Errorf("core: client classes have no positive weight")
	}
	if len(c.Classes) > MaxTrafficClasses {
		return fmt.Errorf("core: %d traffic classes, at most %d supported", len(c.Classes), MaxTrafficClasses)
	}
	shareTotal := 0.0
	for i, tc := range c.Classes {
		if !finite(tc.Share) || tc.Share <= 0 {
			return fmt.Errorf("core: traffic class %d share %g must be positive and finite", i, tc.Share)
		}
		if tc.Selector != "" && !HasSelector(tc.Selector) {
			return fmt.Errorf("core: traffic class %d selector %q unknown (have %v)", i, tc.Selector, SelectorNames())
		}
		if !finite(tc.RetryPatience) || tc.RetryPatience < 0 {
			return fmt.Errorf("core: traffic class %d retry patience %g must be finite and non-negative", i, tc.RetryPatience)
		}
		shareTotal += tc.Share
	}
	if len(c.Classes) > 0 && (math.IsInf(shareTotal, 0) || shareTotal <= 0) {
		return fmt.Errorf("core: traffic class shares sum to %g", shareTotal)
	}
	if err := c.Shed.Validate(); err != nil {
		return err
	}
	if c.Shed.Enabled && len(c.Classes) < 2 {
		return fmt.Errorf("core: load shedding requires at least two traffic classes, have %d", len(c.Classes))
	}
	if !finite(c.ResumeGuard) || c.ResumeGuard < 0 {
		return fmt.Errorf("core: ResumeGuard %g must be finite and non-negative", c.ResumeGuard)
	}
	if c.Shards < 0 || c.Shards > 1 {
		return fmt.Errorf("core: Shards %d: the sharded engine was removed, only 0 or 1 is accepted", c.Shards)
	}
	if c.Spare > EvenSplit {
		return fmt.Errorf("core: unknown spare discipline %d", uint8(c.Spare))
	}
	if c.Allocator != "" && (c.Allocator != AllocMinFlowEFTF || c.Intermittent || c.Spare != EFTF) {
		return fmt.Errorf("core: Allocator %q is obsolete: select the scheduler with Intermittent and Spare, and leave Allocator empty", c.Allocator)
	}
	if c.Planner != "" {
		return fmt.Errorf("core: Planner %q is obsolete: bound the DRM chain with Migration.MaxChain, and leave Planner empty", c.Planner)
	}
	if c.Selector != "" && !HasSelector(c.Selector) {
		return fmt.Errorf("core: unknown selector %q (have %v)", c.Selector, SelectorNames())
	}
	if len(c.ServerStorage) > 0 && len(c.ServerStorage) != len(c.ServerBandwidth) {
		return fmt.Errorf("core: %d storage capacities for %d servers", len(c.ServerStorage), len(c.ServerBandwidth))
	}
	if !finite(c.Replication.CopyRateCap) || c.Replication.CopyRateCap < 0 {
		return fmt.Errorf("core: replication copy rate cap %g must be finite and non-negative", c.Replication.CopyRateCap)
	}
	if c.Intermittent && !c.Workahead {
		return fmt.Errorf("core: intermittent scheduling needs client staging buffers (it pauses streams against them)")
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.Degraded.Validate(); err != nil {
		return err
	}
	if err := c.Interactivity.Validate(); err != nil {
		return err
	}
	if err := c.Edge.Validate(); err != nil {
		return err
	}
	if batch := c.BatchPolicyName(); batch != BatchUnicast {
		if c.Intermittent {
			return fmt.Errorf("core: batch policy %q is incompatible with intermittent scheduling (a paused primary starves its taps)", batch)
		}
		if c.Interactivity.PauseProb > 0 {
			return fmt.Errorf("core: batch policy %q is incompatible with viewer interactivity (a paused primary starves its taps)", batch)
		}
	}
	return c.Migration.Validate()
}

// TotalBandwidth returns the aggregate cluster bandwidth in Mb/s.
func (c Config) TotalBandwidth() float64 {
	t := 0.0
	for _, b := range c.ServerBandwidth {
		t += b
	}
	return t
}

// Slots returns how many concurrent streams server i can carry under
// minimum-flow admission: ⌊bandwidth / ViewRate⌋ (the server-to-view
// bandwidth ratio, SVBR, rounded down).
func (c Config) Slots(i int) int {
	return int(c.ServerBandwidth[i]/c.ViewRate + timeEps)
}

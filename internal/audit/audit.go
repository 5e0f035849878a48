// Package audit implements an always-available invariant auditor for
// the simulation core. It attaches to a core.Engine through the audit
// taps (core.AuditTap) and re-derives, independently of the engine's
// own bookkeeping, the conservation laws the paper's results rest on:
//
//   - bandwidth: per-server allocated bandwidth never exceeds capacity,
//     and every unfinished, transmitting request receives at least
//     b_view — the semi-continuous minimum-flow guarantee;
//   - client state: staging buffers stay within [0, capacity] and no
//     client receives faster than its receive cap;
//   - EFTF: spare bandwidth is fed in earliest-projected-finish order,
//     no later-finishing request is fed while an earlier-finishing one
//     it passed still has headroom, and no candidate the feed skipped
//     had headroom and an earlier finish than the last one fed (the
//     feed lists skipped candidates unordered; the check is O(k));
//   - intermittent: bandwidth goes in ascending-buffer order up to the
//     first stream it ran out at, and every stream the feed paused
//     after that one, listed unordered, is unfed and no drier than it;
//   - admission: the controller's chosen server could actually accept
//     the stream it claimed to admit, and holds a replica of its video;
//   - DRM: per-request hop budgets and per-admission chain lengths are
//     respected, and every migration lands on a replica holder;
//   - placement: every stream is served by a server that holds its
//     video (tracked against the auditor's own replica map, updated
//     only by replication taps), and dynamic replicas fit storage;
//   - faults: failures and recoveries alternate per server, every
//     stream active at a failure is rescued, dropped, or parked, and a
//     cold recovery resets the auditor's replica and storage model so
//     later placement checks see the wiped state;
//   - partial failures: brownouts and restores alternate per server and
//     never overlap a failure, and a browned-out server's effective
//     bandwidth and slot count equal, bit for bit, the configured
//     capacity scaled by the audited fraction — the auditor keeps its
//     own per-server fraction mirror driven only by the brownout taps;
//   - overload shedding: shed rejections occur only with the controller
//     enabled, only against sheddable (non-premium) classes, and only
//     at utilizations at or above the configured watermark; per-class
//     arrival accounting balances at the end of the run;
//   - accounting: arrivals = accepted + rejected + reneged, accepted
//     streams all finish or are dropped, retry-queue and degraded-mode
//     episodes balance, and delivered volume never exceeds accepted
//     volume;
//   - wake index: each server's incremental next-wake answer equals,
//     bit for bit, the from-scratch minimum over the wake keys stored
//     on its streams and copy jobs — a maintenance bug in the engine's
//     min-tracking (a missed dirty mark, an unfolded copy key) cannot
//     hide behind floating-point slack.
//
// The auditor fails fast: the first violation aborts the run and
// surfaces as a structured *Violation error naming the event, server,
// and request involved. Enable it with Scenario.Audit (or the vodsim
// -audit flag); every tier-1 test and the experiment registry run with
// it on.
package audit

import (
	"fmt"
	"math"

	"semicont/internal/core"
)

// Tolerances mirroring the core fluid model's (core keeps its own
// unexported copies; the values are part of the model contract).
const (
	dataEps = 1e-6 // Mb
	timeEps = 1e-9 // s
)

// Violation is one broken invariant, with enough context to locate the
// offending event in a trace. It implements error and is the error type
// Run returns when auditing rejects a simulation.
type Violation struct {
	// Rule names the invariant: "bandwidth", "min-flow", "receive-cap",
	// "workahead-off", "buffer-underrun", "buffer-overflow", "overrun",
	// "slots", "failed-active", "copy-rate", "eftf-order", "eftf-feed",
	// "intermittent-order", "intermittent-feed", "admission-feasible",
	// "hops", "chain", "migration-target", "replica", "replica-dup",
	// "storage", "fault-state", "failure-accounting", "accounting",
	// "overload-shedding", "wake-exact", "edge-accounting".
	Rule string

	Time    float64 // simulation time of the violating event
	Seq     uint64  // 1-based event sequence number (0 = before first event)
	Event   string  // event kind being processed ("arrival", "wake", …)
	Server  int     // offending server, −1 when not applicable
	Request int64   // offending request, 0 when not applicable
	Detail  string  // human-readable specifics
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("audit: %s violation at t=%.6g (event #%d %s, server %d, request %d): %s",
		v.Rule, v.Time, v.Seq, v.Event, v.Server, v.Request, v.Detail)
}

// Auditor implements core.AuditTap. It keeps its own model of the
// cluster's replica placement and storage use so the checks do not
// trust the engine state they are checking. The zero value is not
// usable; call New.
type Auditor struct {
	cfg    core.Config
	begun  bool
	events uint64

	holders     [][]bool       // video → per-server replica flags
	storageUsed []float64      // static + dynamic storage per server, Mb
	rescued     map[int64]bool // requests moved by failure rescue (hop budget waived)

	// Fault model. down mirrors per-server up/down state exactly — it
	// is driven by the always-on Failure/Recovery taps, so it stays
	// correct under snapshot sampling. lastActive holds per-server
	// active stream counts as of the last *recorded* event; with
	// sampling it can be stale, so checks that need the
	// immediately-previous event's state gate on lastEventSeq.
	lastActive   []int
	down         []bool
	lastEventSeq uint64
	failures     int64
	recoveries   int64

	// Partial-failure model. frac mirrors each server's effective
	// capacity fraction (1 = full), driven only by the always-on
	// Brownout/BrownoutEnd taps; the per-event snapshot check derives
	// the expected bandwidth and slot count from it with the engine's
	// own float expressions, so the comparison is exact.
	frac      []float64
	brownouts int64
	restores  int64

	// Overload-shedding model: shed-tap count, reconciled against the
	// engine's per-class metrics at End.
	shedCount int64

	// Edge-tier model: serve/batched-join counts and an edge-byte
	// mirror accumulated with the engine's own float expression
	// (prefix + catch-up per serve, in tap order), reconciled exactly
	// against Metrics.EdgeHits/BatchedJoins/EdgeMb at End.
	edgeServes  int64
	edgeBatched int64
	edgeMb      float64

	// Current event context, established by BeginEvent, attributed to
	// violations raised by in-event taps.
	curSeq            uint64
	curTime           float64
	curKind           string
	effMaxHops        int     // −1 = unlimited
	effMaxChain       int     // ≥ 1
	effCopyRateCap    float64 // Mb/s
	migrationBounded  bool
	storageCapEnabled bool

	violations []Violation
}

// New returns an empty auditor ready to attach via Engine.SetAuditTap.
func New() *Auditor {
	return &Auditor{rescued: make(map[int64]bool)}
}

// Violations returns every violation recorded so far (at most one per
// run under the fail-fast contract, but unit tests may accumulate more).
func (a *Auditor) Violations() []Violation { return a.violations }

// Events returns how many engine events have been audited.
func (a *Auditor) Events() uint64 { return a.events }

// Err returns the first violation as an error, or nil when clean.
func (a *Auditor) Err() error {
	if len(a.violations) == 0 {
		return nil
	}
	return &a.violations[0]
}

// fail records a violation with the current event context and returns
// it as the tap error that aborts the run.
func (a *Auditor) fail(rule string, server int, request int64, format string, args ...any) error {
	v := Violation{
		Rule:    rule,
		Time:    a.curTime,
		Seq:     a.curSeq,
		Event:   a.curKind,
		Server:  server,
		Request: request,
		Detail:  fmt.Sprintf(format, args...),
	}
	a.violations = append(a.violations, v)
	return &a.violations[len(a.violations)-1]
}

// holds reports whether the replica model has video v on server s. A
// server outside the cluster holds nothing.
func (a *Auditor) holds(v int, s int32) bool {
	row := a.holders[v]
	return s >= 0 && int(s) < len(row) && row[s]
}

// Begin implements core.AuditTap.
func (a *Auditor) Begin(b core.AuditBegin) error {
	a.cfg = b.Config
	a.begun = true
	a.curKind = "begin"
	servers := len(b.StaticStorage)
	flags := make([]bool, b.NumVideos*servers)
	a.holders = make([][]bool, b.NumVideos)
	for v := range a.holders {
		a.holders[v] = flags[v*servers : (v+1)*servers : (v+1)*servers]
	}
	for v, hs := range b.Holders {
		for _, h := range hs {
			if h >= 0 && int(h) < servers {
				a.holders[v][h] = true
			}
		}
	}
	a.storageUsed = append([]float64(nil), b.StaticStorage...)
	a.down = make([]bool, len(b.StaticStorage))
	a.frac = make([]float64, len(b.StaticStorage))
	for i := range a.frac {
		a.frac[i] = 1
	}
	a.effMaxHops = core.UnlimitedHops
	a.effMaxChain = 1
	if m := b.Config.Migration; m.Enabled {
		a.effMaxHops = m.MaxHops
		if m.MaxChain > a.effMaxChain {
			a.effMaxChain = m.MaxChain
		}
		a.migrationBounded = m.MaxHops != core.UnlimitedHops
	}
	a.effCopyRateCap = b.Config.Replication.CopyRateCap
	if a.effCopyRateCap == 0 {
		a.effCopyRateCap = 2 * b.Config.ViewRate
	}
	// A video may legitimately have no replica when the static placement
	// ran out of storage (Result.PlacementShortfall warns); the per-event
	// replica check catches any such video actually being served.
	a.storageCapEnabled = len(b.Config.ServerStorage) > 0
	return nil
}

// BeginEvent implements core.AuditTap.
func (a *Auditor) BeginEvent(seq uint64, t float64, kind core.AuditEventKind, server int32, req int64) error {
	a.curSeq, a.curTime, a.curKind = seq, t, kind.String()
	return nil
}

// Event implements core.AuditTap: the per-event conservation checks.
func (a *Auditor) Event(rec core.AuditEventRecord) error {
	a.events++
	if a.lastActive == nil {
		a.lastActive = make([]int, len(rec.Servers))
	}
	defer func() {
		// Remember the post-event state: the next failure event's
		// dispositions are checked against these counts (valid only
		// when that event immediately follows this one — see
		// lastEventSeq).
		for si := range rec.Servers {
			a.lastActive[si] = len(rec.Servers[si].Requests)
		}
		a.lastEventSeq = rec.Seq
	}()
	bview := a.cfg.ViewRate
	for si := range rec.Servers {
		s := &rec.Servers[si]
		sid := int(s.ID)
		if s.Failed {
			if len(s.Requests) != 0 {
				return a.fail("failed-active", sid, s.Requests[0].ID,
					"failed server still carries %d streams", len(s.Requests))
			}
			if len(s.Copies) != 0 {
				return a.fail("failed-active", sid, 0,
					"failed server still sources %d copy jobs", len(s.Copies))
			}
			continue
		}
		if !a.cfg.Intermittent && len(s.Requests) > s.Slots {
			return a.fail("slots", sid, 0,
				"%d streams on a server with %d minimum-flow slots", len(s.Requests), s.Slots)
		}
		// Effective capacity: the snapshot's bandwidth and slot count
		// must equal the configured capacity scaled by the audited
		// brownout fraction — computed with the engine's own float
		// expressions, so == is exact, not rounded.
		if sid < len(a.frac) && sid < len(a.cfg.ServerBandwidth) {
			wantBW := a.cfg.ServerBandwidth[sid] * a.frac[sid]
			if s.Bandwidth != wantBW {
				return a.fail("fault-state", sid, 0,
					"effective bandwidth %g != %g (configured %g × audited fraction %g)",
					s.Bandwidth, wantBW, a.cfg.ServerBandwidth[sid], a.frac[sid])
			}
			if want := int(wantBW/a.cfg.ViewRate + timeEps); s.Slots != want {
				return a.fail("fault-state", sid, 0,
					"%d slots != %d derived from effective bandwidth %g", s.Slots, want, wantBW)
			}
		}
		total := 0.0
		for ri := range s.Requests {
			r := &s.Requests[ri]
			total += r.Rate
			if err := a.checkRequest(sid, r, bview); err != nil {
				return err
			}
		}
		for ci := range s.Copies {
			c := &s.Copies[ci]
			total += c.Rate
			if c.Sent > c.Size+dataEps {
				return a.fail("overrun", sid, 0,
					"copy of video %d sent %g of %g Mb", c.Video, c.Sent, c.Size)
			}
			if c.Rate > a.effCopyRateCap+dataEps {
				return a.fail("copy-rate", sid, 0,
					"copy of video %d at %g Mb/s exceeds cap %g", c.Video, c.Rate, a.effCopyRateCap)
			}
		}
		if total > s.Bandwidth+dataEps {
			return a.fail("bandwidth", sid, 0,
				"allocated %g of %g Mb/s", total, s.Bandwidth)
		}
		// Wake-exact: the engine's incremental wake index must answer
		// exactly the from-scratch minimum over the stored keys. The
		// comparison is deliberately == (no epsilon): both sides read the
		// same stored float64 keys, so any difference is a maintenance
		// bug, not rounding.
		scan := math.Inf(1)
		for ri := range s.Requests {
			if k := s.Requests[ri].WakeKey; k < scan {
				scan = k
			}
		}
		for ci := range s.Copies {
			if k := s.Copies[ci].WakeKey; k < scan {
				scan = k
			}
		}
		if s.NextWake != scan {
			return a.fail("wake-exact", sid, 0,
				"incremental next-wake %g != %g from-scratch min over %d stored keys",
				s.NextWake, scan, len(s.Requests)+len(s.Copies))
		}
		if a.storageCapEnabled {
			if cap := a.cfg.ServerStorage[sid]; cap > 0 && a.storageUsed[sid] > cap+dataEps {
				return a.fail("storage", sid, 0,
					"storage %g Mb exceeds capacity %g Mb", a.storageUsed[sid], cap)
			}
		}
	}
	return nil
}

// checkRequest audits one in-flight request's fluid state.
func (a *Auditor) checkRequest(sid int, r *core.AuditRequestState, bview float64) error {
	if r.Sent > r.Size+dataEps {
		return a.fail("overrun", sid, r.ID, "sent %g of %g Mb", r.Sent, r.Size)
	}
	if !a.cfg.Intermittent && !r.Suspended && !r.Finished() && !r.PausedView && r.Rate < bview-dataEps {
		return a.fail("min-flow", sid, r.ID,
			"rate %g Mb/s below the b_view=%g minimum-flow guarantee", r.Rate, bview)
	}
	if a.cfg.Workahead && r.RecvCap > 0 && r.Rate > r.RecvCap+dataEps {
		return a.fail("receive-cap", sid, r.ID,
			"rate %g Mb/s exceeds client receive cap %g", r.Rate, r.RecvCap)
	}
	if !a.cfg.Workahead && !r.Suspended && r.Rate > bview+dataEps {
		return a.fail("workahead-off", sid, r.ID,
			"rate %g Mb/s above b_view=%g with workahead disabled", r.Rate, bview)
	}
	if r.Buffer < -dataEps && !a.cfg.Intermittent {
		return a.fail("buffer-underrun", sid, r.ID,
			"buffer %g Mb at t=%g (playback outran delivery under minimum-flow)", r.Buffer, r.SyncedAt)
	}
	if r.Buffer > r.BufCap+bview*timeEps+dataEps {
		return a.fail("buffer-overflow", sid, r.ID,
			"buffer %g Mb exceeds capacity %g Mb", r.Buffer, r.BufCap)
	}
	if v := int(r.Video); v >= 0 && v < len(a.holders) && !a.holds(v, int32(sid)) {
		return a.fail("replica", sid, r.ID,
			"served by a server that holds no replica of video %d", v)
	}
	if a.migrationBounded && !a.rescued[r.ID] && int(r.Hops) > a.effMaxHops {
		return a.fail("hops", sid, r.ID,
			"%d lifetime migrations exceed MaxHops=%d", r.Hops, a.effMaxHops)
	}
	return nil
}

// SpareOrder implements core.AuditTap: the EFTF ordering checks. The
// fed grants must come in the discipline's order, none may follow a
// fed candidate that was left with receive headroom, and no skipped
// candidate with receive headroom may precede the last one fed: the
// feed would have reached it first. Each check allows dataEps of slack
// in the remaining volumes, and the whole pass is O(k).
func (a *Auditor) SpareOrder(t float64, server int32, discipline core.SpareDiscipline, grants []core.SpareGrant) error {
	if discipline != core.EFTF && discipline != core.LFTF {
		return nil
	}
	var prev, last *core.SpareGrant // last fed candidate; last with a positive grant
	starved := false                // an earlier candidate still had receive headroom
	for i := range grants {
		g := &grants[i]
		if g.Skipped {
			if g.Extra > dataEps {
				return a.fail("eftf-feed", int(server), g.Request,
					"skipped candidate granted %g Mb/s", g.Extra)
			}
			continue
		}
		if prev != nil && ahead(discipline, g.Remaining, prev.Remaining) {
			return a.fail("eftf-order", int(server), g.Request,
				"%s feed order broken: remaining %g Mb fed after %g Mb (request %d)",
				discipline, g.Remaining, prev.Remaining, prev.Request)
		}
		if g.Extra > dataEps && starved {
			return a.fail("eftf-feed", int(server), g.Request,
				"granted %g Mb/s while an earlier-finishing candidate still had receive headroom", g.Extra)
		}
		if !saturated(g) {
			starved = true
		}
		if g.Extra > 0 {
			last = g
		}
		prev = g
	}
	if last == nil {
		return nil
	}
	for i := range grants {
		g := &grants[i]
		if g.Skipped && !saturated(g) && ahead(discipline, g.Remaining, last.Remaining) {
			return a.fail("eftf-order", int(server), g.Request,
				"%s feed skipped remaining %g Mb with receive headroom but fed %g Mb (request %d)",
				discipline, g.Remaining, last.Remaining, last.Request)
		}
	}
	return nil
}

// ahead reports whether remaining volume x comes before y in the
// discipline's feed order by more than dataEps.
func ahead(discipline core.SpareDiscipline, x, y float64) bool {
	if discipline == core.LFTF {
		return x-dataEps > y
	}
	return x+dataEps < y
}

// saturated reports whether a spare-feed candidate ended at its receive
// cap.
func saturated(g *core.SpareGrant) bool {
	return g.RecvCap > 0 && g.RateBefore+g.Extra >= g.RecvCap-dataEps
}

// IntermittentOrder implements core.AuditTap: ascending-buffer feeding.
// Grants up to the first drained stream (unfed for want of bandwidth,
// not paused-full) must come in ascending-buffer order; the tail after
// it is unordered, and every tail stream must be unfed and no drier
// than the drained one.
func (a *Auditor) IntermittentOrder(t float64, server int32, grants []core.IntermittentGrant) error {
	var drained *core.IntermittentGrant // first stream the bandwidth ran out at
	for i := range grants {
		g := &grants[i]
		if drained != nil {
			if g.Buffer+dataEps < drained.Buffer {
				return a.fail("intermittent-order", int(server), g.Request,
					"buffer %g Mb left after drained request %d (%g Mb)",
					g.Buffer, drained.Request, drained.Buffer)
			}
			if g.Rate > 0 {
				return a.fail("intermittent-feed", int(server), g.Request,
					"fed %g Mb/s after a drier stream was paused", g.Rate)
			}
			continue
		}
		if i > 0 && g.Buffer+dataEps < grants[i-1].Buffer {
			return a.fail("intermittent-order", int(server), g.Request,
				"buffer %g Mb considered after %g Mb (request %d)",
				g.Buffer, grants[i-1].Buffer, grants[i-1].Request)
		}
		if !g.PausedFull && g.Rate <= 0 {
			drained = g
		}
	}
	return nil
}

// Admission implements core.AuditTap: the selector's feasibility claim.
// A chosen server must have been able to accept the stream (the engine
// reports its own re-check as feasible) and must hold a replica of the
// video per the auditor's independent replica model.
func (a *Auditor) Admission(t float64, video int32, server int32, viaDRM, feasible bool) error {
	if !feasible {
		return a.fail("admission-feasible", int(server), 0,
			"selector chose a server that cannot accept video %d (viaDRM=%t)", video, viaDRM)
	}
	if v := int(video); v >= 0 && v < len(a.holders) && !a.holds(v, server) {
		return a.fail("admission-feasible", int(server), 0,
			"selector chose a server holding no replica of video %d", v)
	}
	return nil
}

// Migration implements core.AuditTap: hop budgets and target legality.
func (a *Auditor) Migration(t float64, req int64, video int32, from, to int32, hops int32, rescue bool) error {
	if from == to {
		return a.fail("migration-target", int(to), req, "migrated onto its own server")
	}
	if v := int(video); v >= 0 && v < len(a.holders) && !a.holds(v, to) {
		return a.fail("migration-target", int(to), req,
			"migrated to a server holding no replica of video %d", v)
	}
	if rescue {
		a.rescued[req] = true
		return nil
	}
	if a.migrationBounded && !a.rescued[req] && int(hops) > a.effMaxHops {
		return a.fail("hops", int(to), req,
			"migration %d exceeds MaxHops=%d", hops, a.effMaxHops)
	}
	return nil
}

// Failure implements core.AuditTap: a failure must dispose of exactly
// the streams active on the server when it failed (rescued, dropped,
// or parked — none silently vanish), and failures must strike only
// servers that were up.
func (a *Auditor) Failure(t float64, server int32, rescued, dropped, parked int) error {
	a.failures++
	sid := int(server)
	if sid < len(a.down) && a.down[sid] {
		return a.fail("fault-state", sid, 0, "failure of a server already failed")
	}
	if sid < len(a.frac) && a.frac[sid] != 1 {
		return a.fail("fault-state", sid, 0,
			"failure of a server browned out to %g (its restore must come first)", a.frac[sid])
	}
	if sid < len(a.down) {
		a.down[sid] = true
	}
	if rescued < 0 || dropped < 0 || parked < 0 {
		return a.fail("failure-accounting", sid, 0,
			"negative disposition: %d rescued, %d dropped, %d parked", rescued, dropped, parked)
	}
	// The full accounting identity needs the stream count as of the
	// event just before this one. Under snapshot sampling lastActive
	// may be older than that, so the check runs only when the previous
	// event was actually recorded (always true without sampling).
	if a.lastEventSeq == a.curSeq-1 {
		was := 0
		if sid < len(a.lastActive) {
			was = a.lastActive[sid]
		}
		if rescued+dropped+parked != was {
			return a.fail("failure-accounting", sid, 0,
				"%d rescued + %d dropped + %d parked != %d streams active at failure",
				rescued, dropped, parked, was)
		}
	}
	return nil
}

// Recovery implements core.AuditTap: recoveries must follow failures,
// and a cold recovery resets the auditor's independent replica and
// storage model so subsequent placement checks reflect the wipe.
func (a *Auditor) Recovery(t float64, server int32, cold bool) error {
	a.recoveries++
	sid := int(server)
	if sid >= len(a.down) || !a.down[sid] {
		return a.fail("fault-state", sid, 0, "recovery of a server that was not failed")
	}
	a.down[sid] = false
	if cold {
		for _, row := range a.holders {
			row[sid] = false
		}
		if sid < len(a.storageUsed) {
			a.storageUsed[sid] = 0
		}
	}
	return nil
}

// Brownout implements core.AuditTap: brownouts strike only servers
// that are up and at full capacity, with a fraction in (0, 1]. The
// audited fraction becomes the auditor's mirror that the per-event
// effective-capacity check derives expectations from.
func (a *Auditor) Brownout(t float64, server int32, frac float64, rescued, dropped, parked int) error {
	a.brownouts++
	sid := int(server)
	if sid < len(a.down) && a.down[sid] {
		return a.fail("fault-state", sid, 0, "brownout of a failed server")
	}
	if sid < len(a.frac) && a.frac[sid] != 1 {
		return a.fail("fault-state", sid, 0,
			"brownout of a server already dimmed to %g", a.frac[sid])
	}
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return a.fail("fault-state", sid, 0, "brownout fraction %g outside (0, 1]", frac)
	}
	if rescued < 0 || dropped < 0 || parked < 0 {
		return a.fail("failure-accounting", sid, 0,
			"negative brownout disposition: %d rescued, %d dropped, %d parked",
			rescued, dropped, parked)
	}
	if sid < len(a.frac) {
		a.frac[sid] = frac
	}
	return nil
}

// BrownoutEnd implements core.AuditTap: restores must follow brownouts
// per server, and reset the auditor's fraction mirror to full capacity.
func (a *Auditor) BrownoutEnd(t float64, server int32) error {
	a.restores++
	sid := int(server)
	if sid < len(a.down) && a.down[sid] {
		return a.fail("fault-state", sid, 0, "restore of a failed server")
	}
	if sid >= len(a.frac) || a.frac[sid] == 1 {
		return a.fail("fault-state", sid, 0, "restore of a server that was not browned out")
	}
	a.frac[sid] = 1
	return nil
}

// Shed implements core.AuditTap: the overload-shedding rule. A shed
// rejection is legal only with the controller enabled, against a
// sheddable class (never 0, the protected premium tier), and at an
// instantaneous utilization at or above the configured watermark.
func (a *Auditor) Shed(t float64, video int32, class int32, util, watermark float64) error {
	a.shedCount++
	if !a.cfg.Shed.Enabled {
		return a.fail("overload-shedding", -1, 0,
			"arrival shed with the shed controller disabled")
	}
	if class <= 0 || int(class) >= len(a.cfg.Classes) {
		return a.fail("overload-shedding", -1, 0,
			"shed class %d outside the sheddable range [1, %d)", class, len(a.cfg.Classes))
	}
	if watermark != a.cfg.Shed.Watermark {
		return a.fail("overload-shedding", -1, 0,
			"shed against watermark %g, configured %g", watermark, a.cfg.Shed.Watermark)
	}
	if math.IsNaN(util) || util < watermark {
		return a.fail("overload-shedding", -1, 0,
			"arrival shed at utilization %g below watermark %g", util, watermark)
	}
	return nil
}

// EdgeServe implements core.AuditTap: the edge-accounting rule. Every
// edge serve must decompose the whole object exactly — prefix bytes
// from the edge cache, plus the relayed catch-up and multicast share
// of a batched join, plus the unicast cluster suffix, must equal the
// object's size — with every part non-negative, only on a run with
// the edge tier enabled, and with the batched shape matching the
// configured batch policy.
func (a *Auditor) EdgeServe(t float64, video int32, prefixMb, catchupMb, sharedMb, suffixMb, sizeMb float64, batched bool) error {
	a.edgeServes++
	if a.cfg.Edge.Nodes == 0 {
		return a.fail("edge-accounting", -1, 0,
			"edge serve of video %d with the edge tier disabled", video)
	}
	if prefixMb <= 0 || catchupMb < 0 || sharedMb < 0 || suffixMb < 0 {
		return a.fail("edge-accounting", -1, 0,
			"video %d: malformed decomposition prefix=%g catchup=%g shared=%g suffix=%g",
			video, prefixMb, catchupMb, sharedMb, suffixMb)
	}
	if got := prefixMb + catchupMb + sharedMb + suffixMb; math.Abs(got-sizeMb) > dataEps {
		return a.fail("edge-accounting", -1, 0,
			"video %d: prefix %g + catchup %g + shared %g + suffix %g = %g != object size %g",
			video, prefixMb, catchupMb, sharedMb, suffixMb, got, sizeMb)
	}
	if batched {
		a.edgeBatched++
		if a.cfg.BatchPolicyName() != core.BatchBatchPrefix {
			return a.fail("edge-accounting", -1, 0,
				"batched join of video %d under batch policy %q", video, a.cfg.BatchPolicyName())
		}
		if suffixMb != 0 {
			return a.fail("edge-accounting", -1, 0,
				"batched join of video %d opened a %g Mb cluster suffix stream", video, suffixMb)
		}
	} else if catchupMb != 0 || sharedMb != 0 {
		return a.fail("edge-accounting", -1, 0,
			"unbatched serve of video %d with catchup %g / shared %g Mb", video, catchupMb, sharedMb)
	}
	a.edgeMb += prefixMb + catchupMb
	return nil
}

// Chain implements core.AuditTap: per-admission chain bounds.
func (a *Auditor) Chain(t float64, length int) error {
	if length < 1 || length > a.effMaxChain {
		return a.fail("chain", -1, 0,
			"DRM chain of %d moves outside [1, %d]", length, a.effMaxChain)
	}
	return nil
}

// Replication implements core.AuditTap: replica and storage accounting.
func (a *Auditor) Replication(t float64, video, from, to int32, size float64) error {
	v := int(video)
	if v < 0 || v >= len(a.holders) {
		return a.fail("replica", int(to), 0, "replicated unknown video %d", v)
	}
	if !a.holds(v, from) {
		return a.fail("replica", int(from), 0,
			"replica of video %d copied from a non-holder", v)
	}
	if a.holds(v, to) {
		return a.fail("replica-dup", int(to), 0,
			"replica of video %d installed on a server that already holds it", v)
	}
	if to < 0 || int(to) >= len(a.holders[v]) {
		return a.fail("replica", int(to), 0,
			"replica of video %d installed on unknown server %d", v, to)
	}
	a.holders[v][to] = true
	a.storageUsed[to] += size
	if a.storageCapEnabled {
		if cap := a.cfg.ServerStorage[to]; cap > 0 && a.storageUsed[to] > cap+dataEps {
			return a.fail("storage", int(to), 0,
				"replica of video %d (%g Mb) overflows storage: %g of %g Mb", v, size, a.storageUsed[to], cap)
		}
	}
	return nil
}

// End implements core.AuditTap: global accounting identities, checked
// once the run has drained.
func (a *Auditor) End(t float64, m core.Metrics) error {
	a.curTime, a.curKind = t, "end"
	if m.Arrivals != m.Accepted+m.Rejected+m.Reneged {
		return a.fail("accounting", -1, 0,
			"%d arrivals != %d accepted + %d rejected + %d reneged",
			m.Arrivals, m.Accepted, m.Rejected, m.Reneged)
	}
	if m.Accepted != m.Completions+m.DroppedStreams {
		return a.fail("accounting", -1, 0,
			"%d accepted != %d completions + %d dropped after drain", m.Accepted, m.Completions, m.DroppedStreams)
	}
	if m.RetriesQueued != m.RetriedAdmissions+m.Reneged {
		return a.fail("accounting", -1, 0,
			"%d retries queued != %d retried admissions + %d reneged after drain",
			m.RetriesQueued, m.RetriedAdmissions, m.Reneged)
	}
	if m.DegradedParked != m.DegradedResumed+m.DegradedGlitches {
		return a.fail("accounting", -1, 0,
			"%d parked != %d resumed + %d glitched after drain",
			m.DegradedParked, m.DegradedResumed, m.DegradedGlitches)
	}
	if a.failures != m.Failures || a.recoveries != m.Recoveries {
		return a.fail("fault-state", -1, 0,
			"audited %d failures / %d recoveries, metrics report %d / %d",
			a.failures, a.recoveries, m.Failures, m.Recoveries)
	}
	downNow := int64(0)
	for _, f := range a.down {
		if f {
			downNow++
		}
	}
	if m.Failures-m.Recoveries != downNow {
		return a.fail("fault-state", -1, 0,
			"%d failures − %d recoveries != %d servers down at end",
			m.Failures, m.Recoveries, downNow)
	}
	if a.brownouts != m.Brownouts || a.restores != m.BrownoutRestores {
		return a.fail("fault-state", -1, 0,
			"audited %d brownouts / %d restores, metrics report %d / %d",
			a.brownouts, a.restores, m.Brownouts, m.BrownoutRestores)
	}
	dimmedNow := int64(0)
	for _, f := range a.frac {
		if f != 1 {
			dimmedNow++
		}
	}
	if m.Brownouts-m.BrownoutRestores != dimmedNow {
		return a.fail("fault-state", -1, 0,
			"%d brownouts − %d restores != %d servers dimmed at end",
			m.Brownouts, m.BrownoutRestores, dimmedNow)
	}
	if len(a.cfg.Classes) > 0 {
		var classArrivals, classShed int64
		for c := range a.cfg.Classes {
			classArrivals += m.ClassArrivals[c]
			classShed += m.ClassShed[c]
			if m.ClassArrivals[c] != m.ClassAccepted[c]+m.ClassRejected[c]+m.ClassReneged[c] {
				return a.fail("accounting", -1, 0,
					"class %d: %d arrivals != %d accepted + %d rejected + %d reneged",
					c, m.ClassArrivals[c], m.ClassAccepted[c], m.ClassRejected[c], m.ClassReneged[c])
			}
			if m.ClassShed[c] > m.ClassRejected[c] {
				return a.fail("overload-shedding", -1, 0,
					"class %d: %d shed exceeds %d rejected", c, m.ClassShed[c], m.ClassRejected[c])
			}
		}
		if classArrivals != m.Arrivals {
			return a.fail("accounting", -1, 0,
				"per-class arrivals sum to %d, metrics report %d", classArrivals, m.Arrivals)
		}
		if classShed != a.shedCount {
			return a.fail("overload-shedding", -1, 0,
				"per-class shed counts sum to %d, audited %d shed taps", classShed, a.shedCount)
		}
		if a.shedCount > 0 && m.SheddingActivated == 0 {
			return a.fail("overload-shedding", -1, 0,
				"%d arrivals shed but the controller never reported activating", a.shedCount)
		}
	} else if a.shedCount > 0 {
		return a.fail("overload-shedding", -1, 0,
			"%d arrivals shed on a classless run", a.shedCount)
	}
	if m.DeliveredBytes > m.AcceptedBytes*(1+1e-9)+dataEps {
		return a.fail("accounting", -1, 0,
			"delivered %g Mb exceeds accepted %g Mb", m.DeliveredBytes, m.AcceptedBytes)
	}
	if a.edgeServes != m.EdgeHits || a.edgeBatched != m.BatchedJoins {
		return a.fail("edge-accounting", -1, 0,
			"audited %d edge serves / %d batched joins, metrics report %d / %d",
			a.edgeServes, a.edgeBatched, m.EdgeHits, m.BatchedJoins)
	}
	// The byte mirror was accumulated with the engine's own expression
	// in the engine's own order, so the comparison is exact — any
	// difference is an accounting path the EdgeServe tap missed.
	if a.edgeMb != m.EdgeMb {
		return a.fail("edge-accounting", -1, 0,
			"audited edge bytes %g != metrics EdgeMb %g", a.edgeMb, m.EdgeMb)
	}
	if a.cfg.Edge.Nodes > 0 {
		if m.ClusterEgressMb != m.DeliveredBytes {
			return a.fail("edge-accounting", -1, 0,
				"cluster egress %g Mb != delivered %g Mb", m.ClusterEgressMb, m.DeliveredBytes)
		}
	} else if m.ClusterEgressMb != 0 || m.EdgeMb != 0 || m.EdgeHits != 0 || m.BatchedJoins != 0 {
		return a.fail("edge-accounting", -1, 0,
			"edge metrics nonzero with the edge tier disabled: hits=%d joins=%d edge=%g egress=%g",
			m.EdgeHits, m.BatchedJoins, m.EdgeMb, m.ClusterEgressMb)
	}
	if m.ChainLengthTotal > m.Migrations {
		return a.fail("accounting", -1, 0,
			"chain-length total %d exceeds %d migrations", m.ChainLengthTotal, m.Migrations)
	}
	return nil
}

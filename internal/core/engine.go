package core

import (
	"fmt"
	"math"

	"semicont/internal/catalog"
	"semicont/internal/core/alloc"
	"semicont/internal/edge"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/simtime"
	"semicont/internal/stats"
	"semicont/internal/workload"
)

// ArrivalSource supplies the request stream. workload.Generator
// implements it; tests substitute scripted sequences.
type ArrivalSource interface {
	// Next returns the next request. Arrival times must be
	// non-decreasing.
	Next() workload.Request
}

type evKind uint8

const (
	evArrival evKind = iota
	evServerWake
	evFailure
	evPause
	evResume
	evRecovery
	evRetry
	evParkTick
	evBrownout
	evBrownoutEnd
)

type event struct {
	kind    evKind
	server  int32
	version uint64
	req     int64   // pause/resume/park target request, or retry entry id
	cold    bool    // recovery only: storage wiped
	frac    float64 // brownout only: effective-bandwidth fraction
}

// Engine runs one cluster simulation: it owns the servers, the park
// lane, the future event list, and all per-request fluid state.
type Engine struct {
	cfg     Config
	cat     *catalog.Catalog
	layout  *placement.Layout
	source  ArrivalSource
	events  simtime.Queue[event]
	servers []*server

	now     float64
	horizon float64
	metrics Metrics
	obs     Observer

	nextID  int64
	pending workload.Request

	// Heterogeneous client population (nil when homogeneous).
	classAlias *rng.Alias
	classRNG   *rng.PCG

	// Traffic classes and load shedding (see overload.go): the class
	// draw stream (nil when classless), lazily built per-class
	// selectors, and the shed controller's two-state flag.
	trafficAlias *rng.Alias
	trafficRNG   *rng.PCG
	classSel     [MaxTrafficClasses]ServerSelector
	shedding     bool

	// Interactivity: the pause-draw stream and the live-request index
	// pause/resume events resolve through (nil when disabled).
	interactRNG *rng.PCG
	byID        map[int64]*request

	// Dynamic replication state: runtime replicas layered over the
	// static layout, per-server extra storage use, and the set of
	// videos with a copy in flight.
	extraHolders map[int32][]int32
	extraUsed    []float64
	copying      map[int32]bool

	// Fault-tolerance state (see faulttol.go): per-server scheduled
	// fail/recover bookkeeping, cold-wiped static storage, the admission
	// retry queue, and streams parked in degraded-mode playback: their
	// slots in the park lane, indexed by request id for park ticks.
	faultSched  []faultSched
	staticWiped []bool
	retryQ      map[int64]*retryEntry
	nextRetryID int64
	parkLane    server
	parked      map[int64]*request

	// Audit instrumentation (nil when no auditor is attached): the tap,
	// the first violation raised, the event sequence counter, the
	// snapshot stream with its one reused server row (allocated at the
	// first snapshot, so an unaudited engine carries only the pointer),
	// and the reusable grant buffers. spareFed marks, by slot, the
	// candidates an audited spare feed fed; it is all false between
	// feeds.
	audit            AuditTap
	auditErr         error
	auditSeq         uint64
	auditEvery       uint64
	auditSnap        *auditStream
	spareGrantBuf    []SpareGrant
	spareFed         []bool
	intermitGrantBuf []IntermittentGrant

	// Streaming observation channels (see observe.go). Always bound —
	// stats.Discard by default — so recording never branches.
	obsAcc [NumObsKinds]stats.Accumulator

	// The admission server selector, built lazily from
	// Config.SelectorName (see controller.go).
	sel ServerSelector

	// Edge tier (see edge.go): one prefix cache per edge node, the
	// round-robin arrival→node cursor, and the per-video prefix sizes
	// computed at Reset.
	edgeCaches []edge.CachePolicy
	edgeRR     int
	edgePrefix []float64

	// Scratch reused across events to keep the hot path allocation-free.
	// cand is the per-server candidate index the allocation feeds use,
	// prefix the bounded one the EFTF/LFTF spare feed keeps; their
	// entries are pointer-free positions into a server's active slice, so
	// retaining them between events cannot pin finished requests against
	// the garbage collector (the old []*request scratch did).
	cand       alloc.Index
	prefix     alloc.Prefix
	evenBuf    []alloc.Entry
	touchedBuf []*server
	planBuf    []move
	drmTgt     []drmTarget // planDirect's per-title targets, by video
	drmGen     uint64      // the stamp of drmTgt's current entries
	visited    []bool
	freeList   []*request
}

// NewEngine validates the configuration and assembles an engine. The
// layout must have been built for the same number of servers.
func NewEngine(cfg Config, cat *catalog.Catalog, lay *placement.Layout, src ArrivalSource) (*Engine, error) {
	e := new(Engine)
	if err := e.Reset(cfg, cat, lay, src); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset reinitializes the engine for a fresh run of a (possibly
// different) configuration, retaining every reusable allocation: the
// event queue's backing array, the request freelist, the per-server
// structs and their active/copy slices, and all allocator and audit
// scratch. A Reset engine is observationally identical to a NewEngine
// one — same validation, same derived seed streams, same event
// ordering — so workers running many trials reuse one engine instead
// of allocating per trial (see BenchmarkTrialReset).
func (e *Engine) Reset(cfg Config, cat *catalog.Catalog, lay *placement.Layout, src ArrivalSource) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if lay.NumServers() != len(cfg.ServerBandwidth) {
		return fmt.Errorf("core: layout has %d servers, config %d", lay.NumServers(), len(cfg.ServerBandwidth))
	}
	if src == nil {
		return fmt.Errorf("core: nil arrival source")
	}
	e.cfg = cfg
	e.cat = cat
	e.layout = lay
	e.source = src
	e.events.Reset()

	n := len(cfg.ServerBandwidth)
	if cap(e.servers) < n {
		e.servers = make([]*server, n)
	} else {
		e.servers = e.servers[:n]
	}
	for i, b := range cfg.ServerBandwidth {
		if e.servers[i] == nil {
			e.servers[i] = new(server)
		}
		e.servers[i].reset(int32(i), b, cfg.Slots(i))
	}
	e.parkLane.reset(-1, 0, 0) // an id no server has: e.servers[-1] fails loudly
	e.visited = resize(e.visited, n)
	e.drmTgt, e.drmGen = resize(e.drmTgt, cat.Len()), 0
	e.extraUsed = resize(e.extraUsed, n)

	e.now, e.horizon = 0, 0
	e.metrics = Metrics{}
	e.obs = nil
	e.nextID = 0
	e.pending = workload.Request{}

	// Per-run selector and RNG state: nil so the lazy selector lookups
	// rebuild from the new config (random-feasible's choice stream, for
	// one, is split off cfg.SelectorSeed when first built).
	e.sel = nil
	e.resetEdge()
	e.classAlias, e.classRNG = nil, nil
	e.trafficAlias, e.trafficRNG = nil, nil
	e.classSel = [MaxTrafficClasses]ServerSelector{}
	e.shedding = false
	e.interactRNG, e.byID = nil, nil
	if cfg.Interactivity.PauseProb > 0 {
		e.interactRNG = rng.New(rng.DeriveSeed(cfg.Interactivity.Seed, 0x706175)) // "pau"
		e.byID = make(map[int64]*request)
	}
	if len(cfg.ClientClasses) > 0 {
		weights := make([]float64, len(cfg.ClientClasses))
		for i, cl := range cfg.ClientClasses {
			weights[i] = cl.Weight
		}
		alias, err := rng.NewAlias(weights)
		if err != nil {
			return fmt.Errorf("core: client classes: %w", err)
		}
		e.classAlias = alias
		e.classRNG = rng.New(rng.DeriveSeed(cfg.ClientSeed, 0xc11e47)) // "client"
	}
	if len(cfg.Classes) > 0 {
		shares := make([]float64, len(cfg.Classes))
		for i, tc := range cfg.Classes {
			shares[i] = tc.Share
		}
		alias, err := rng.NewAlias(shares)
		if err != nil {
			return fmt.Errorf("core: traffic classes: %w", err)
		}
		e.trafficAlias = alias
		e.trafficRNG = rng.New(rng.DeriveSeed(cfg.ClassSeed, 0x636c6173)) // "clas"
	}

	// Replication, fault-tolerance, and audit state back to the lazy
	// zero the constructor leaves; maps keep their storage.
	clear(e.extraHolders)
	clear(e.copying)
	clear(e.retryQ)
	clear(e.parked)
	e.faultSched = nil
	e.staticWiped = nil
	e.nextRetryID = 0
	e.audit = nil
	e.auditErr = nil
	e.auditSeq = 0
	e.auditEvery = 0
	e.discardObs()
	e.spareGrantBuf = e.spareGrantBuf[:0]
	e.intermitGrantBuf = e.intermitGrantBuf[:0]
	// cand/prefix/evenBuf/touchedBuf/planBuf are reset at each use, and
	// drmTgt by planDirect's stamp; freeList is kept — recycled requests
	// are the cross-trial reuse this enables.
	return nil
}

// resize returns s resliced to length n and zeroed, reusing its
// storage when the capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SetObserver installs a lifecycle observer (may be nil). Call before Run.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Metrics returns the live metrics (valid during and after Run).
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// faultSched tracks what has been scheduled for one server so the
// Schedule* methods can reject malformed sequences up front: failures
// and recoveries must alternate per server (starting from the up
// state) with non-decreasing times, and a brownout may neither overlap
// a down interval nor nest inside another brownout — the same
// three-state (up/down/dimmed) machine faults.Config.Validate enforces
// on scripted traces.
type faultSched struct {
	down   bool    // a scheduled failure has no recovery yet
	dimmed bool    // a scheduled brownout has no restore yet
	lastT  float64 // time of the last scheduled event
}

// checkFaultTime validates a fault-event time against a server's
// schedule so far.
func (e *Engine) checkFaultTime(t float64, id int, what string) error {
	if id < 0 || id >= len(e.servers) {
		return fmt.Errorf("core: no server %d", id)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("core: %s time %g is not finite", what, t)
	}
	if t < 0 {
		return fmt.Errorf("core: %s time %g before start", what, t)
	}
	if e.faultSched == nil {
		e.faultSched = make([]faultSched, len(e.servers))
	}
	if prev := e.faultSched[id].lastT; t < prev {
		return fmt.Errorf("core: %s of server %d at %g precedes its already-scheduled event at %g", what, id, t, prev)
	}
	return nil
}

// ScheduleFailure arranges for server id to fail at time t. Streams on
// the failed server are rescued via migration where a replica holder
// has room, parked in degraded-mode playback when configured and
// buffered data allows, and dropped otherwise. Per server, failures
// and recoveries must alternate in non-decreasing time order; a
// duplicate failure of an already-failed server is an error. Call
// before Run.
func (e *Engine) ScheduleFailure(t float64, id int) error {
	if err := e.checkFaultTime(t, id, "failure"); err != nil {
		return err
	}
	if e.faultSched[id].down {
		return fmt.Errorf("core: server %d is already scheduled to be down at t=%g (schedule its recovery first)", id, t)
	}
	if e.faultSched[id].dimmed {
		return fmt.Errorf("core: server %d is scheduled to be browned out at t=%g (schedule its restore first)", id, t)
	}
	e.faultSched[id] = faultSched{down: true, lastT: t}
	e.events.Push(t, event{kind: evFailure, server: int32(id)})
	return nil
}

// ScheduleRecovery arranges for a failed server to rejoin the cluster
// at time t. A warm recovery (cold=false) returns with its replicas
// intact; a cold recovery wipes the server's storage — its replicas
// are lost and are rebuilt only through the dynamic-replication path.
// The recovery must follow a scheduled failure of the same server.
// Call before Run.
func (e *Engine) ScheduleRecovery(t float64, id int, cold bool) error {
	if err := e.checkFaultTime(t, id, "recovery"); err != nil {
		return err
	}
	if !e.faultSched[id].down {
		return fmt.Errorf("core: recovery of server %d at t=%g without a preceding failure", id, t)
	}
	e.faultSched[id] = faultSched{down: false, lastT: t}
	e.events.Push(t, event{kind: evRecovery, server: int32(id), cold: cold})
	return nil
}

// ScheduleBrownout arranges for server id's effective bandwidth to drop
// to the fraction frac ∈ (0,1] of its configured capacity at time t.
// Its slot count scales with it; under minimum-flow scheduling, streams
// in excess of the reduced slots go through the same rescue → park →
// drop ladder a failure applies. Per server, brownouts must be restored
// before the next brownout or failure, and may not target a server
// scheduled to be down. Call before Run.
func (e *Engine) ScheduleBrownout(t float64, id int, frac float64) error {
	if err := e.checkFaultTime(t, id, "brownout"); err != nil {
		return err
	}
	if math.IsNaN(frac) || frac <= 0 || frac > 1 {
		return fmt.Errorf("core: brownout fraction %g must be in (0,1]", frac)
	}
	if e.faultSched[id].down {
		return fmt.Errorf("core: server %d is scheduled to be down at t=%g (a down server has no bandwidth to dim)", id, t)
	}
	if e.faultSched[id].dimmed {
		return fmt.Errorf("core: server %d is already scheduled to be browned out at t=%g (schedule its restore first)", id, t)
	}
	e.faultSched[id] = faultSched{dimmed: true, lastT: t}
	e.events.Push(t, event{kind: evBrownout, server: int32(id), frac: frac})
	return nil
}

// ScheduleRestore arranges for a browned-out server to return to full
// capacity at time t. It must follow a scheduled brownout of the same
// server. Call before Run.
func (e *Engine) ScheduleRestore(t float64, id int) error {
	if err := e.checkFaultTime(t, id, "restore"); err != nil {
		return err
	}
	if !e.faultSched[id].dimmed {
		return fmt.Errorf("core: restore of server %d at t=%g without a preceding brownout", id, t)
	}
	e.faultSched[id] = faultSched{lastT: t}
	e.events.Push(t, event{kind: evBrownoutEnd, server: int32(id)})
	return nil
}

// Run processes arrivals with times in [0, horizon) and then drains all
// in-flight transmissions. It returns the accumulated metrics, or the
// first audit violation when an attached auditor rejects the run.
func (e *Engine) Run(horizon float64) (*Metrics, error) {
	if err := e.Start(horizon); err != nil {
		return nil, err
	}
	for e.Step() {
	}
	if e.audit != nil && e.auditErr == nil {
		e.auditFail(e.audit.End(e.now, e.metrics))
	}
	if e.auditErr != nil {
		return nil, e.auditErr
	}
	return &e.metrics, nil
}

// Start primes the engine for stepwise execution: arrivals with times
// in [0, horizon) will be admitted as Step is called. Tests and
// interactive drivers use Start + Step; Run wraps them.
func (e *Engine) Start(horizon float64) error {
	if horizon <= 0 {
		return fmt.Errorf("core: horizon must be positive, got %g", horizon)
	}
	e.horizon = horizon
	if e.audit != nil {
		e.auditBegin()
		if e.auditErr != nil {
			return e.auditErr
		}
	}
	e.primeArrival()
	return nil
}

// primeArrival fetches the next request from the source and schedules
// its arrival event if it falls inside the horizon.
func (e *Engine) primeArrival() {
	r := e.source.Next()
	if r.Arrival >= e.horizon {
		return
	}
	e.pending = r
	e.events.Push(r.Arrival, event{kind: evArrival})
}

// Step processes a single event. It returns false when the event list
// is exhausted (the run is complete) or an attached auditor raised a
// violation (consult AuditErr).
func (e *Engine) Step() bool {
	t, ev, ok := e.events.Pop()
	if !ok {
		return false
	}
	if t > e.now {
		e.now = t
	}
	var akind AuditEventKind
	var aserver int32
	var areq int64
	if e.audit != nil {
		if e.auditErr != nil {
			return false
		}
		akind, aserver, areq = auditKind(ev)
		e.auditSeq++
		e.auditFail(e.audit.BeginEvent(e.auditSeq, e.now, akind, aserver, areq))
	}
	e.dispatch(ev)
	if e.audit != nil {
		// The post-event snapshot is the expensive audit step; with
		// sampling enabled only every auditEvery-th event streams one
		// to the tap. The decision is keyed to the deterministic event
		// sequence number — never wall time — so sampled audits
		// reproduce bit-identically at any GOMAXPROCS or worker count.
		if e.auditErr == nil && (e.auditEvery <= 1 || e.auditSeq%e.auditEvery == 0) {
			e.auditFail(e.audit.Event(e.auditRecord(akind, aserver, areq)))
		}
		if e.auditErr != nil {
			return false
		}
	}
	return true
}

// dispatch routes one popped event to its handler at the already
// advanced e.now. Step wraps it with audit instrumentation.
func (e *Engine) dispatch(ev event) {
	switch ev.kind {
	case evArrival:
		e.handleArrival(e.now)
	case evServerWake:
		e.handleWake(e.servers[ev.server], ev.version, e.now)
	case evFailure:
		e.handleFailure(e.servers[ev.server], e.now)
	case evPause:
		e.handleInteraction(ev.req, e.now, true)
	case evResume:
		e.handleInteraction(ev.req, e.now, false)
	case evRecovery:
		e.handleRecovery(e.servers[ev.server], e.now, ev.cold)
	case evRetry:
		e.handleRetry(ev.req, e.now)
	case evParkTick:
		e.handleParkTick(ev.req, ev.version, e.now)
	case evBrownout:
		e.handleBrownout(e.servers[ev.server], ev.frac, e.now)
	case evBrownoutEnd:
		e.handleBrownoutEnd(e.servers[ev.server], e.now)
	}
}

// handleArrival is event dispatch plus failure accounting; the
// admission decision itself (selector, DRM planner, success accounting)
// is the controller's, behind admit (controller.go).
func (e *Engine) handleArrival(t float64) {
	req := e.pending
	e.primeArrival()
	e.metrics.Arrivals++

	v := req.Video
	class := e.drawTrafficClass()
	if class >= 0 {
		e.metrics.ClassArrivals[class]++
	}
	bufCap, recvCap := e.drawClientCaps()
	if e.shedArrival(int32(v), class, t) {
		// Shed up front: no retry queue, no replication — the point of
		// shedding is to stop spending overloaded capacity on low
		// classes.
		e.metrics.Rejected++
		e.metrics.ClassRejected[class]++
		e.metrics.ClassShed[class]++
		if e.obs != nil {
			e.obs.OnReject(t, v)
		}
		return
	}
	prefix := e.edgeProbe(v)
	if prefix > 0 && prefix >= e.cat.Video(v).Size-dataEps {
		// The cached prefix covers the whole object: served entirely
		// at the edge, the cluster never hears about it.
		e.edgeFullServe(v, t, class, prefix)
		e.observe(ObsWait, 0)
		e.observe(ObsEdgeWait, 0)
		return
	}
	joined := false
	switch e.cfg.Edge.Batch {
	case BatchPatch:
		joined = e.tryPatchJoin(v, t, bufCap, recvCap)
	case BatchBatchPrefix:
		joined = e.tryBatchPrefixJoin(v, t, bufCap, prefix)
	}
	if joined {
		if class >= 0 {
			e.metrics.ClassAccepted[class]++
		}
		e.observe(ObsWait, 0)
		if prefix > 0 {
			e.observe(ObsEdgeWait, 0)
		}
		return
	}
	if e.admit(v, t, bufCap, recvCap, class, prefix) {
		e.observe(ObsWait, 0)
		if prefix > 0 {
			e.observe(ObsEdgeWait, 0)
		}
		return
	}
	if e.cfg.Retry.Enabled && len(e.retryQ) < e.retryMaxQueue() {
		e.enqueueRetry(v, t, bufCap, recvCap, class, prefix)
	} else {
		e.metrics.Rejected++
		if class >= 0 {
			e.metrics.ClassRejected[class]++
		}
		if e.obs != nil {
			e.obs.OnReject(t, v)
		}
	}
	if e.cfg.Replication.Enabled {
		// The request is lost (or waiting), but copying the video to
		// a fresh server serves the demand the rejection revealed.
		e.startReplication(int32(v), t)
	}
}

// scheduleInteraction decides at admission whether this viewing pauses
// and, if so, schedules the pause/resume pair. The pause instant is
// derived from the playback position (uniform over the middle 90% of
// the video), which is deterministic until the first pause.
func (e *Engine) scheduleInteraction(r *request, t float64) {
	if e.interactRNG == nil {
		return
	}
	e.byID[r.id] = r
	if e.interactRNG.Float64() >= e.cfg.Interactivity.PauseProb {
		return
	}
	frac := e.interactRNG.UniformRange(0.05, 0.95)
	dur := e.interactRNG.UniformRange(e.cfg.Interactivity.MinPause, e.cfg.Interactivity.MaxPause)
	pauseAt := t + frac*r.size/e.cfg.ViewRate
	e.events.Push(pauseAt, event{kind: evPause, req: r.id})
	e.events.Push(pauseAt+dur, event{kind: evResume, req: r.id})
}

// handleInteraction applies a viewer pause or resume. Events whose
// stream has already finished transmission are client-side only and
// need no server action.
func (e *Engine) handleInteraction(id int64, t float64, pause bool) {
	r, ok := e.byID[id]
	if !ok {
		return // transmission already complete; playback state moot
	}
	s := &e.parkLane
	if !r.parked {
		s = e.servers[r.server]
	}
	s.syncAll(t)
	if pause {
		s.pauseView(int(r.slot), t, e.cfg.ViewRate)
		e.metrics.ViewerPauses++
	} else {
		s.resumeView(int(r.slot), t)
	}
	if r.parked {
		e.nextParkTick(r, t) // the buffer-dry horizon moved
	} else {
		e.reschedule(s, t)
	}
}

func (e *Engine) handleWake(s *server, version uint64, t float64) {
	if version != s.version || s.failed {
		return // stale event
	}
	s.syncAll(t)
	e.releaseFinished(s, t)
	e.reschedule(s, t)
}

// releaseFinished frees the slots and bandwidth of s's completed
// streams and copy jobs. s must be synced to t.
func (e *Engine) releaseFinished(s *server, t float64) {
	for i := 0; i < len(s.active); {
		if s.finishedAt(i) {
			e.finish(s.active[i], s, t)
			continue // retire swapped another request into slot i
		}
		i++
	}
	for i := 0; i < len(s.copies); {
		if c := s.copies[i]; c.done() {
			e.finishCopy(s, c, t) // removes by swapping; don't advance i
			continue
		}
		i++
	}
}

func (e *Engine) finish(r *request, s *server, t float64) {
	e.metrics.Completions++
	if e.obs != nil {
		e.obs.OnFinish(t, r.id, int(r.video), int(s.id))
	}
	e.retire(r, s)
}

// retire accounts for a stream leaving the cluster for good — finished,
// dropped by an eviction, or dry in degraded playback — from its slot
// in s's lane: the bytes it was delivered, mirrored into the cluster
// egress on edge runs, and its lifetime migrations. It then removes the
// slot and recycles the request.
func (e *Engine) retire(r *request, s *server) {
	sent := s.ln.sent[r.slot]
	e.metrics.DeliveredBytes += sent
	if e.cfg.Edge.Nodes > 0 {
		e.metrics.ClusterEgressMb += sent
	}
	e.observe(ObsMigrations, float64(s.ln.meta[r.slot].Hops))
	s.detach(r)
	e.recycle(r)
}

func (e *Engine) handleFailure(s *server, t float64) {
	if s.failed {
		return
	}
	s.syncAll(t)
	s.failed = true
	e.metrics.Failures++
	e.abortCopies(s)
	rescued, dropped, parked := e.evictDownTo(s, t, 0)
	s.version++ // cancel any pending wake; the server is dead
	if e.obs != nil {
		e.obs.OnFailure(t, int(s.id), rescued, dropped, parked)
	}
	if e.audit != nil {
		e.auditFail(e.audit.Failure(t, s.id, rescued, dropped, parked))
	}
}

func (e *Engine) newRequest(video int, t float64) *request {
	var r *request
	if n := len(e.freeList); n > 0 {
		r = e.freeList[n-1]
		e.freeList[n-1] = nil
		e.freeList = e.freeList[:n-1]
		*r = request{}
	} else {
		r = new(request)
	}
	e.nextID++
	r.id = e.nextID
	r.class = -1 // admit overrides with the drawn traffic class
	r.video = int32(video)
	r.size = e.cat.Video(video).Size
	r.start = t
	return r
}

// drawClientCaps decides the arriving client's capabilities: one draw
// per arrival (admitted or not), so the class stream stays aligned
// regardless of admission outcomes.
func (e *Engine) drawClientCaps() (bufCap, recvCap float64) {
	if e.classAlias != nil {
		cl := e.cfg.ClientClasses[e.classAlias.Sample(e.classRNG)]
		return cl.BufferCapacity, cl.ReceiveCap
	}
	return e.cfg.BufferCapacity, e.cfg.ReceiveCap
}

func (e *Engine) recycle(r *request) {
	if e.byID != nil {
		delete(e.byID, r.id)
	}
	e.freeList = append(e.freeList, r)
}

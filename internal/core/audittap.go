package core

import "slices"

// Audit taps: fine-grained engine instrumentation consumed by the
// internal/audit invariant auditor. The engine stays oblivious to what
// is checked — it only reports what it did, at the moments transient
// scheduler decisions (EFTF feed order, migration chains, intermittent
// pausing, replica installs) are visible. The auditor package cannot be
// imported from here (it imports core), so the contract lives on this
// side of the boundary.
//
// All slices handed to tap methods are reused scratch buffers: a tap
// must copy anything it wants to retain past the call.

// AuditEventKind identifies the engine event being audited.
type AuditEventKind uint8

// The engine's event kinds, as exposed to audit taps.
const (
	AuditArrival AuditEventKind = iota
	AuditWake
	AuditFailure
	AuditPause
	AuditResume
	AuditRecovery
	AuditRetry
	AuditPark
	AuditBrownout
	AuditBrownoutEnd
)

// String implements fmt.Stringer.
func (k AuditEventKind) String() string {
	switch k {
	case AuditArrival:
		return "arrival"
	case AuditWake:
		return "wake"
	case AuditFailure:
		return "failure"
	case AuditPause:
		return "pause"
	case AuditResume:
		return "resume"
	case AuditRecovery:
		return "recovery"
	case AuditRetry:
		return "retry"
	case AuditPark:
		return "park"
	case AuditBrownout:
		return "brownout"
	case AuditBrownoutEnd:
		return "brownout-end"
	default:
		return "unknown"
	}
}

// AuditRequestState is one in-flight request as seen by the auditor.
// Fluid quantities are valid as of SyncedAt (each request's own last
// sync instant, exactly what the engine's decisions were based on).
type AuditRequestState struct {
	ID       int64
	Video    int32
	Rate     float64 // current allocation, Mb/s
	Sent     float64 // Mb transmitted as of SyncedAt
	Size     float64 // Mb
	Buffer   float64 // raw sent − viewed (may be negative under intermittent)
	BufCap   float64 // client staging buffer, Mb (0 = none)
	RecvCap  float64 // client receive cap, Mb/s (0 = unlimited)
	Hops     int32   // lifetime migrations
	Taps     int32   // dependent patch streams
	SyncedAt float64
	WakeKey  float64 // stored wake key from the last allocation round

	Suspended  bool // mid-switch blackout
	PausedView bool // viewer has paused playback
	IsPatch    bool // unicast prefix patch stream
	Glitched   bool // buffer ran dry under the intermittent scheduler
}

// Finished reports whether transmission is complete.
func (r *AuditRequestState) Finished() bool { return r.Size-r.Sent <= dataEps }

// AuditCopyState is one in-flight replica transfer on its source server.
type AuditCopyState struct {
	Video   int32
	Target  int32
	Rate    float64
	Sent    float64
	Size    float64
	WakeKey float64 // stored wake key from the last allocation round
}

// AuditServerState is one server's full transmission state.
type AuditServerState struct {
	ID        int32
	Bandwidth float64
	Slots     int
	Failed    bool
	// NextWake is the incremental wake index's current answer: the min
	// the engine would schedule the server's next wake from. The
	// wake-exact audit rule checks it equals the from-scratch min over
	// the stored WakeKeys below, bit for bit.
	NextWake float64
	Requests []AuditRequestState
	Copies   []AuditCopyState
}

// AuditEventRecord is the cluster state snapshot delivered after every
// processed engine event.
type AuditEventRecord struct {
	Seq     uint64  // 1-based event sequence number
	Time    float64 // simulation time of the event
	Kind    AuditEventKind
	Server  int32 // event's target server, −1 when not applicable
	Request int64 // event's target request, 0 when not applicable
	Servers []AuditServerState
}

// SpareGrant records one candidate of an ordered workahead feed: a
// candidate the discipline fed, or, with Skipped set, one it did not
// reach — the spare ran out ahead of it, or it had no receive headroom.
type SpareGrant struct {
	Request    int64
	Remaining  float64 // untransmitted volume when considered, Mb
	RateBefore float64 // allocation before the grant, Mb/s
	Extra      float64 // spare bandwidth granted, Mb/s (0 when Skipped)
	RecvCap    float64 // client receive cap (0 = unlimited)
	Skipped    bool    // not fed; listed in slot order after the fed grants
}

// IntermittentGrant records one stream considered by the intermittent
// allocator.
type IntermittentGrant struct {
	Request    int64
	Buffer     float64 // clamped client buffer when considered, Mb
	Rate       float64 // assigned rate (b_view or 0)
	PausedFull bool    // viewer paused with a full buffer (exempt from feeding)
}

// AuditBegin describes the simulation an auditor attaches to, delivered
// once before the first event.
type AuditBegin struct {
	Config    Config
	NumVideos int
	// Holders lists the initial replica holders per video (the static
	// placement). Aliased engine state: do not modify.
	Holders [][]int32
	// StaticStorage is each server's storage consumed by the static
	// placement, in Mb.
	StaticStorage []float64
}

// AuditTap receives engine taps. Any method returning a non-nil error
// aborts the run: the engine stops stepping and Run returns the error.
type AuditTap interface {
	// Begin is called once from Start with the simulation's shape.
	Begin(b AuditBegin) error
	// BeginEvent is called before an event is processed, establishing
	// the context (seq, time, kind, target) for the in-event taps below.
	BeginEvent(seq uint64, t float64, kind AuditEventKind, server int32, req int64) error
	// Event is called after the event is fully processed, with the
	// complete cluster state.
	Event(rec AuditEventRecord) error
	// SpareOrder reports every sequential workahead feed pass (EFTF and
	// LFTF; the even-split water-filling pass has no feed order): the
	// candidates the discipline fed, in the order it fed them with the
	// granted extras, then every other candidate, in slot order, marked
	// Skipped. The feed sorts only what it feeds, so the skipped ones
	// come unordered; a tap checks them against the fed ones instead.
	SpareOrder(t float64, server int32, discipline SpareDiscipline, grants []SpareGrant) error
	// IntermittentOrder reports every intermittent allocation pass, one
	// grant per stream in the order the feed decided it: ascending
	// buffer up to and including the first stream the bandwidth ran out
	// at, then every other stream, paused, in unspecified order. The
	// feed pops only what it serves, so the paused tail comes unordered;
	// a tap checks it against that first drained stream instead.
	IntermittentOrder(t float64, server int32, grants []IntermittentGrant) error
	// Admission reports the controller's server choice for one admitted
	// stream (new arrival or retry-queue attempt): the selected server,
	// whether DRM freed it, and the engine's own feasibility re-check
	// of the choice at decision time — an auditor can fail a selector
	// whose claimed-feasible pick could not actually accept the stream.
	// Parked-stream reconnects are client-initiated and not reported.
	Admission(t float64, video int32, server int32, viaDRM, feasible bool) error
	// Migration reports one executed request move. hops is the
	// request's lifetime count after this move.
	Migration(t float64, req int64, video int32, from, to int32, hops int32, rescue bool) error
	// Failure reports the disposition of a failed server's streams:
	// every stream active at the failure instant was rescued, dropped,
	// or parked into degraded-mode playback.
	Failure(t float64, server int32, rescued, dropped, parked int) error
	// Recovery reports a failed server rejoining the cluster; cold
	// means its storage was wiped.
	Recovery(t float64, server int32, cold bool) error
	// Brownout reports a server dimmed to the fraction frac of its
	// configured bandwidth, with the disposition of any minimum-flow
	// excess (zero under the intermittent scheduler, which sheds
	// nothing).
	Brownout(t float64, server int32, frac float64, rescued, dropped, parked int) error
	// BrownoutEnd reports a browned-out server restored to full
	// capacity.
	BrownoutEnd(t float64, server int32) error
	// Shed reports one arrival rejected up front by the overload shed
	// controller: its video, its traffic class (never 0, the protected
	// class), and the utilization/watermark pair that triggered it.
	Shed(t float64, video int32, class int32, util, watermark float64) error
	// EdgeServe reports one request (partially) served by the edge
	// tier, with its byte decomposition: prefixMb came from the edge
	// cache, catchupMb was relayed from the edge's buffer of a shared
	// stream, sharedMb arrives over that multicast stream, and
	// suffixMb is the unicast cluster stream admitted for the request
	// (0 for full-cache serves and batched joins). The parts must sum
	// to sizeMb, the whole object. batched marks a batch-prefix join.
	EdgeServe(t float64, video int32, prefixMb, catchupMb, sharedMb, suffixMb, sizeMb float64, batched bool) error
	// Chain reports the length of an executed DRM admission chain.
	Chain(t float64, length int) error
	// Replication reports a completed replica install.
	Replication(t float64, video, from, to int32, size float64) error
	// End is called once after the event list drains, with the final
	// metrics.
	End(t float64, m Metrics) error
}

// SetAuditTap installs an audit tap (may be nil). Call before Start.
func (e *Engine) SetAuditTap(tap AuditTap) { e.audit = tap }

// SetAuditSampling makes the attached auditor's per-event snapshot
// check run only on every k-th event (k ≤ 1 restores auditing of every
// event). Sampling is keyed to the engine's deterministic event
// sequence number, never wall time, so a sampled audit examines the
// same events on every platform, GOMAXPROCS, and worker count. The
// cheap stateful taps — BeginEvent, Admission, Migration, Failure,
// Recovery, Chain, Replication, and the feed-order taps — always fire,
// keeping the auditor's replica/storage/fault mirrors exact; only the
// full cluster snapshot (the expensive part, linear in cluster size) is
// sampled. Reset clears the rate.
func (e *Engine) SetAuditSampling(every int) {
	if every < 0 {
		every = 0
	}
	e.auditEvery = uint64(every)
}

// AuditErr returns the first audit violation raised so far (nil when
// clean). Step-based drivers consult it after Step returns false; Run
// surfaces it as its error.
func (e *Engine) AuditErr() error { return e.auditErr }

// DebugForceSpareMisorder inverts the EFTF feed order while still
// reporting the configured discipline to audit taps. It exists solely so
// tests outside this package can prove the auditor detects ordering
// violations; never enable it otherwise.
func (e *Engine) DebugForceSpareMisorder(on bool) { e.spareMisorder = on }

// DebugSkewWakeIndex makes audit snapshots report each loaded server's
// NextWake one second early, without touching the stored keys. It
// exists solely so tests outside this package can prove the auditor's
// wake-exact rule detects an index that disagrees with its keys; never
// enable it otherwise.
func (e *Engine) DebugSkewWakeIndex(on bool) { e.wakeSkew = on }

// auditFail records the first tap error; the engine aborts at the next
// Step boundary.
func (e *Engine) auditFail(err error) {
	if err != nil && e.auditErr == nil {
		e.auditErr = err
	}
}

// auditBegin delivers the Begin tap from Start.
func (e *Engine) auditBegin() {
	holders := make([][]int32, e.cat.Len())
	for v := range holders {
		holders[v] = e.layout.Holders(v)
	}
	static := make([]float64, len(e.servers))
	for i := range static {
		static[i] = e.layout.Used(i)
	}
	e.auditFail(e.audit.Begin(AuditBegin{
		Config:        e.cfg,
		NumVideos:     e.cat.Len(),
		Holders:       holders,
		StaticStorage: static,
	}))
}

// auditKind maps an internal event to its audited kind and target ids.
func auditKind(ev event) (kind AuditEventKind, server int32, req int64) {
	switch ev.kind {
	case evArrival:
		return AuditArrival, -1, 0
	case evServerWake:
		return AuditWake, ev.server, 0
	case evFailure:
		return AuditFailure, ev.server, 0
	case evPause:
		return AuditPause, -1, ev.req
	case evResume:
		return AuditResume, -1, ev.req
	case evRecovery:
		return AuditRecovery, ev.server, 0
	case evRetry:
		// ev.req is a retry-queue entry id, not a request id; the
		// record's Request field reports only real stream ids.
		return AuditRetry, -1, 0
	case evParkTick:
		return AuditPark, -1, ev.req
	case evBrownout:
		return AuditBrownout, ev.server, 0
	case evBrownoutEnd:
		return AuditBrownoutEnd, ev.server, 0
	default:
		return AuditWake, -1, 0
	}
}

// auditRecord fills the reusable snapshot buffers with the full cluster
// state. Fluid quantities are reported as of each request's own sync
// time; building the record never syncs, so it cannot move the run.
func (e *Engine) auditRecord(kind AuditEventKind, server int32, req int64) AuditEventRecord {
	if e.auditServers == nil {
		e.auditServers = make([]AuditServerState, len(e.servers))
	}
	bview := e.cfg.ViewRate
	for i, s := range e.servers {
		st := &e.auditServers[i]
		st.ID = s.id
		st.Bandwidth = s.bandwidth
		st.Slots = s.slots
		st.Failed = s.failed
		st.NextWake = s.currentWake()
		if e.wakeSkew && len(s.active) > 0 {
			st.NextWake = st.NextWake - 1 // test-only sabotage
		}
		// Rows are written in place: a struct literal per row would be
		// built and then copied into the slice.
		st.Requests = slices.Grow(st.Requests[:0], len(s.active))[:len(s.active)]
		for j, r := range s.active {
			q := &st.Requests[j]
			q.ID = r.id
			q.Video = r.video
			q.Rate = s.ln.rate[j]
			q.Sent = s.ln.sent[j]
			q.Size = r.size
			q.Buffer = s.ln.sent[j] - r.viewedAt(s.ln.last[j], bview)
			q.BufCap = r.bufCap
			q.RecvCap = r.recvCap
			q.Hops = r.hops
			q.Taps = r.taps
			q.SyncedAt = s.ln.last[j]
			q.WakeKey = s.ln.wake[j]
			q.Suspended = s.suspendedAt(j, s.ln.last[j])
			q.PausedView = r.pausedView
			q.IsPatch = r.isPatch
			q.Glitched = r.glitched
		}
		st.Copies = st.Copies[:0]
		for _, c := range s.copies {
			st.Copies = append(st.Copies, AuditCopyState{
				Video: c.video, Target: c.target,
				Rate: c.rate, Sent: c.sent, Size: c.size,
				WakeKey: c.wakeKey,
			})
		}
	}
	return AuditEventRecord{
		Seq:     e.auditSeq,
		Time:    e.now,
		Kind:    kind,
		Server:  server,
		Request: req,
		Servers: e.auditServers,
	}
}

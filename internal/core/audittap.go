package core

// Audit taps: fine-grained engine instrumentation consumed by the
// internal/audit invariant auditor. The engine stays oblivious to what
// is checked — it only reports what it did, at the moments transient
// scheduler decisions (EFTF feed order, migration chains, intermittent
// pausing, replica installs) are visible. The auditor package cannot be
// imported from here (it imports core), so the contract lives on this
// side of the boundary.
//
// All slices handed to tap methods are reused scratch buffers or, in
// the snapshot, the engine's own lane columns: a tap must not write
// them, and must copy anything it wants to retain past the call.

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

// AuditCopyState is one in-flight replica transfer on its source server.
type AuditCopyState struct {
	Video   int32
	Target  int32
	Rate    float64
	Sent    float64
	Size    float64
	WakeKey float64 // stored wake key from the last allocation round
}

// AuditServerState is one server's post-event state. Its stream columns
// are a read-only view of the server's lane (lane.go): they alias the
// engine's own columns, one entry per stream in slot order, so only
// the engine writes them, and they are valid only during the Event call
// that received them. Fluid quantities are as of each stream's own
// last sync, Last[j], exactly what the engine's decisions were based
// on.
type AuditServerState struct {
	ID        int32
	Bandwidth float64
	Slots     int
	Failed    bool
	// NextWake is the incremental wake index's current answer: the min
	// the engine would schedule the server's next wake from. The
	// wake-exact audit rule checks it equals the from-scratch min over
	// the stored keys in Wake and Copies, bit for bit.
	NextWake float64

	Rate  []float64  // current allocation, Mb/s
	Sent  []float64  // Mb transmitted as of Last
	Size  []float64  // object size, Mb
	Last  []float64  // the stream's last sync instant
	Susp  []float64  // suspension deadline (mid-switch blackout; 0 = none)
	Wake  []float64  // stored wake key from the last allocation round
	Flags []uint8    // SlotPaused | SlotPatch | SlotTapped | SlotGlitched
	Meta  []SlotMeta // id, video, client caps, hops, viewer position

	Copies []AuditCopyState
}

// Streams returns the number of streams the server carries.
func (s *AuditServerState) Streams() int { return len(s.Rate) }

// Finished reports whether stream j's transmission is complete.
func (s *AuditServerState) Finished(j int) bool { return s.Size[j]-s.Sent[j] <= dataEps }

// PausedView reports whether stream j's viewer has paused playback.
func (s *AuditServerState) PausedView(j int) bool { return s.Flags[j]&SlotPaused != 0 }

// Buffer returns stream j's client buffer as of Last[j]: sent − viewed,
// unclamped (it may be negative under the intermittent scheduler).
func (s *AuditServerState) Buffer(j int, bview float64) float64 {
	m := &s.Meta[j]
	return s.Sent[j] - viewedFrom(m.ViewOff, m.ViewT, s.Size[j], s.Last[j], bview, s.Flags[j]&SlotPaused != 0)
}

// Suspended reports whether stream j is mid-switch as of Last[j],
// through the switch deadline itself: a slot synced exactly at its
// deadline, with no round since, still waits for the wake queued for
// that instant to end the blackout. The lane cannot tell that slot from
// one a round at the deadline left at rate 0, which the engine no
// longer counts as suspended there (minFlowRates: susp > t+timeEps), so
// min-flow does not cover the deadline instant. Past the deadline the
// slot is not suspended.
func (s *AuditServerState) Suspended(j int) bool {
	susp := s.Susp[j]
	return susp > 0 && s.Last[j] <= susp
}

// AuditServerStream hands an auditor the post-event cluster state one
// server at a time.
type AuditServerStream interface {
	// ServerCount returns the cluster's server count.
	ServerCount() int
	// Server returns the state of server i, 0 ≤ i < ServerCount(). The
	// state may be scratch the next Server call overwrites, and it is
	// valid only during the Event call that received the stream.
	Server(i int) *AuditServerState
}

// AuditEventRecord is the cluster state after one processed engine
// event, delivered to AuditTap.Event. Servers streams it one server at
// a time: each server's state views its lane in place, so a snapshot
// copies no stream.
type AuditEventRecord struct {
	Seq     uint64  // 1-based event sequence number
	Time    float64 // simulation time of the event
	Kind    AuditEventKind
	Server  int32 // event's target server, −1 when not applicable
	Request int64 // event's target request, 0 when not applicable
	Servers AuditServerStream
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
	// complete cluster state streamed server by server (each server's
	// state is a read-only view of its lane, handed out as the tap asks
	// for it, inside this call). With sampling (SetAuditSampling) only
	// every k-th event calls it.
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
// cluster snapshot is sampled: its checks take time linear in the
// cluster's stream count, though the snapshot itself copies no stream,
// as each server's state views its lane in place. Reset clears the
// rate.
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

// auditStream is the engine's AuditServerStream. Server(i) points row,
// the one AuditServerState the engine keeps for snapshots, at server
// i's lane columns; only its copy-job rows are its own, kept across
// events and across Reset.
type auditStream struct {
	e   *Engine
	row AuditServerState
}

// auditRecord returns the post-event snapshot record. Its stream reads
// the engine's live state when the tap asks for a server, so it is
// valid only until the engine moves on.
func (e *Engine) auditRecord(kind AuditEventKind, server int32, req int64) AuditEventRecord {
	if e.auditSnap == nil {
		e.auditSnap = &auditStream{e: e}
	}
	return AuditEventRecord{
		Seq:     e.auditSeq,
		Time:    e.now,
		Kind:    kind,
		Server:  server,
		Request: req,
		Servers: e.auditSnap,
	}
}

// ServerCount implements AuditServerStream.
func (a *auditStream) ServerCount() int { return len(a.e.servers) }

// Server implements AuditServerStream: it points the reused row at
// server i's lane. Building the view never syncs, so it cannot move the
// run; only the copy jobs, a few per replicating server, are copied
// into rows.
func (a *auditStream) Server(i int) *AuditServerState {
	s := a.e.servers[i]
	ln := &s.ln
	st := &a.row
	*st = AuditServerState{
		ID:        s.id,
		Bandwidth: s.bandwidth,
		Slots:     s.slots,
		Failed:    s.failed,
		NextWake:  s.currentWake(),
		Rate:      ln.rate,
		Sent:      ln.sent,
		Size:      ln.size,
		Last:      ln.last,
		Susp:      ln.susp,
		Wake:      ln.wake,
		Flags:     ln.flags,
		Meta:      ln.meta,
		Copies:    st.Copies[:0],
	}
	for _, c := range s.copies {
		st.Copies = append(st.Copies, AuditCopyState{
			Video: c.video, Target: c.target,
			Rate: c.rate, Sent: c.sent, Size: c.size,
			WakeKey: c.wakeKey,
		})
	}
	return st
}

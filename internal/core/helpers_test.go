package core

import (
	"fmt"
	"math"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
	"semicont/internal/workload"
)

// scriptSource replays a fixed list of requests, then reports +Inf so
// the engine schedules nothing further.
type scriptSource struct {
	reqs []workload.Request
	i    int
}

func (s *scriptSource) Next() workload.Request {
	if s.i < len(s.reqs) {
		r := s.reqs[s.i]
		s.i++
		return r
	}
	return workload.Request{Arrival: math.Inf(1)}
}

// fixedCatalog builds n videos of identical length (seconds) at 3 Mb/s.
func fixedCatalog(t *testing.T, n int, lengthSec float64) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: n, MinLength: lengthSec, MaxLength: lengthSec, ViewRate: 3, Theta: 1,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// manualLayout wraps placement.Manual with test fatals.
func manualLayout(t *testing.T, cat *catalog.Catalog, holders [][]int, numServers int) *placement.Layout {
	t.Helper()
	lay, err := placement.Manual(cat, holders, numServers)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// newTestEngine builds an audited engine over fixed-length videos with
// an explicit layout and scripted arrivals.
func newTestEngine(t *testing.T, cfg Config, cat *catalog.Catalog, holders [][]int, reqs []workload.Request) *Engine {
	t.Helper()
	lay := manualLayout(t, cat, holders, len(cfg.ServerBandwidth))
	e, err := NewEngine(cfg, cat, lay, &scriptSource{reqs: reqs})
	if err != nil {
		t.Fatal(err)
	}
	return audited(t, e)
}

// NewTestAuditor returns a fresh internal/audit auditor that fails t
// when t ends if it recorded a violation. That package imports this
// one, so tests here cannot import it: audit_hook_test.go, an external
// test file built into the same test binary, sets this from init.
var NewTestAuditor func(t testing.TB) AuditTap

// audited attaches the model checker this package's test engines run
// under: the auditor, with checkLanes before its per-event checks. A
// violation fails t whether the test drives the engine with Run or
// Step. Reset detaches it.
func audited(t testing.TB, e *Engine) *Engine {
	e.SetAuditTap(&laneCheckTap{AuditTap: NewTestAuditor(t), t: t, e: e})
	return e
}

// laneCheckTap is an audit tap that runs checkLanes after every event
// and stops a run that stalls: stallEvents events in a row at one
// simulated instant. A round that leaves a wake key at the current
// instant requeues that wake for ever, and at a switch deadline the
// auditor's min-flow rule cannot see it (see AuditServerState.Suspended).
type laneCheckTap struct {
	AuditTap
	t     testing.TB
	e     *Engine
	at    float64 // time of the latest events
	since uint64  // sequence number of the first event at that time
}

const stallEvents = 10_000

func (c *laneCheckTap) Event(rec AuditEventRecord) error {
	if err := checkLanes(c.e); err != nil {
		c.t.Errorf("event %d (%s) at t=%g: %v", rec.Seq, rec.Kind, rec.Time, err)
		return err
	}
	if rec.Time != c.at {
		c.at, c.since = rec.Time, rec.Seq
	} else if n := rec.Seq - c.since; n >= stallEvents {
		err := fmt.Errorf("the run stalls: %d events at t=%g", n, rec.Time)
		c.t.Errorf("event %d (%s): %v", rec.Seq, rec.Kind, err)
		return err
	}
	return c.AuditTap.Event(rec)
}

// checkLanes checks the lane structure no audit snapshot can see, on
// every server and on the park lane (server -1): every lane column is
// as long as the active list, each request holds its own server and
// slot index and is parked exactly when its slot is in the park lane,
// where it transmits nothing, and the columns a request mirrors — size,
// id, video, and the patch and tapped flags — match it.
func checkLanes(e *Engine) error {
	for _, s := range e.servers {
		if err := checkLane(s, false); err != nil {
			return err
		}
	}
	return checkLane(&e.parkLane, true)
}

// checkLane is checkLanes on one lane, parked telling the park lane.
func checkLane(s *server, parked bool) error {
	n, ln := len(s.active), &s.ln
	for _, l := range []int{
		len(ln.rate), len(ln.sent), len(ln.last), len(ln.susp), len(ln.size), len(ln.wake),
		len(ln.flags), len(ln.meta),
	} {
		if l != n {
			return fmt.Errorf("server %d: a lane column has %d entries for %d active streams", s.id, l, n)
		}
	}
	for i, r := range s.active {
		if int(r.slot) != i || r.server != s.id {
			return fmt.Errorf("server %d: request %d in slot %d holds server %d slot %d", s.id, r.id, i, r.server, r.slot)
		}
		f, m := ln.flags[i], &ln.meta[i]
		switch {
		case r.parked != parked:
			return fmt.Errorf("server %d: request %d has parked %v", s.id, r.id, r.parked)
		case parked && ln.rate[i] != 0:
			return fmt.Errorf("park lane: request %d at rate %g", r.id, ln.rate[i])
		case ln.size[i] != r.size:
			return fmt.Errorf("server %d: request %d lane size %g != %g", s.id, r.id, ln.size[i], r.size)
		case m.ID != r.id:
			return fmt.Errorf("server %d slot %d: lane id %d != request %d", s.id, i, m.ID, r.id)
		case m.Video != r.video:
			return fmt.Errorf("server %d: request %d lane video %d != %d", s.id, r.id, m.Video, r.video)
		case f&SlotPatch != 0 != r.isPatch:
			return fmt.Errorf("server %d: request %d lane patch flag %v != %v", s.id, r.id, f&SlotPatch != 0, r.isPatch)
		case f&SlotTapped != 0 != (r.taps > 0):
			return fmt.Errorf("server %d: request %d lane tapped flag %v with %d taps", s.id, r.id, f&SlotTapped != 0, r.taps)
		}
	}
	return nil
}

// slotState is the lane state a test stream starts with where it
// differs from what attach writes (everything zero, the viewer at 0 as
// of last).
type slotState struct {
	rate, sent, last, susp float64
	bufCap, recvCap        float64
	viewT                  float64 // the viewer is at 0 as of viewT
}

// attachSlot attaches r to s and writes st into its new slot.
func attachSlot(s *server, r *request, st slotState) {
	s.attach(r, st.last, st.bufCap, st.recvCap)
	ln, i := &s.ln, r.slot
	ln.rate[i], ln.sent[i], ln.susp[i] = st.rate, st.sent, st.susp
	ln.meta[i].ViewT = st.viewT
}

// inFlight is one in-flight request as the audit snapshot reports it,
// with the id of the server carrying it.
type inFlight struct {
	ID     int64
	Server int32
	Rate   float64 // Mb/s
	Buffer float64 // sent − viewed, Mb
	Hops   int32
}

// requestsInFlight lists every in-flight request from the audit
// snapshot. Its fluid state is as of each request's own last sync, so
// reading it never moves the simulation.
func requestsInFlight(e *Engine) []inFlight {
	var out []inFlight
	snap := e.auditRecord(0, -1, 0).Servers
	for i := 0; i < snap.ServerCount(); i++ {
		s := snap.Server(i)
		for j := range s.Streams() {
			out = append(out, inFlight{
				ID: s.Meta[j].ID, Server: s.ID, Rate: s.Rate[j],
				Buffer: s.Buffer(j, e.cfg.ViewRate), Hops: s.Meta[j].Hops,
			})
		}
	}
	return out
}

// run drives the engine to completion with the given horizon and
// returns the metrics.
func run(t *testing.T, e *Engine, horizon float64) *Metrics {
	t.Helper()
	m, err := e.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

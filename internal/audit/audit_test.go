package audit

import (
	"errors"
	"strings"
	"testing"

	"semicont/internal/core"
)

// testAuditor returns an auditor attached to a fixed two-server cluster:
// 30 Mb/s each (10 minimum-flow slots), b_view = 3, staging with a
// 100 Mb buffer, DRM with MaxHops=1/MaxChain=1, replication with
// 1000 Mb of storage per server. Video 0 lives on server 0 only; video 1
// on both. An event context is already established.
func testAuditor(t *testing.T) *Auditor {
	t.Helper()
	a := New()
	cfg := core.Config{
		ServerBandwidth: []float64{30, 30},
		ViewRate:        3,
		BufferCapacity:  100,
		Workahead:       true,
		ReceiveCap:      30,
		Migration:       core.MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1},
		Replication:     core.ReplicationConfig{Enabled: true},
		ServerStorage:   []float64{1000, 1000},
	}
	if err := a.Begin(core.AuditBegin{
		Config:        cfg,
		NumVideos:     2,
		Holders:       [][]int32{{0}, {0, 1}},
		StaticStorage: []float64{500, 300},
	}); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := a.BeginEvent(1, 10, core.AuditWake, 0, 0); err != nil {
		t.Fatalf("BeginEvent: %v", err)
	}
	return a
}

// okRequest returns a request state that passes every check on its
// holder's server.
func okRequest(id int64, video int32) core.AuditRequestState {
	return core.AuditRequestState{
		ID: id, Video: video, Rate: 3, Sent: 10, Size: 100,
		Buffer: 5, BufCap: 100, RecvCap: 30, SyncedAt: 10,
	}
}

// record wraps per-server request/copy lists into a full event record.
func record(servers ...core.AuditServerState) core.AuditEventRecord {
	return core.AuditEventRecord{Seq: 1, Time: 10, Kind: core.AuditWake, Server: 0, Servers: servers}
}

func server(id int32, reqs []core.AuditRequestState, copies []core.AuditCopyState) core.AuditServerState {
	return core.AuditServerState{ID: id, Bandwidth: 30, Slots: 10, Requests: reqs, Copies: copies}
}

// wantRule asserts err is a *Violation with the given rule.
func wantRule(t *testing.T, err error, rule string) *Violation {
	t.Helper()
	if err == nil {
		t.Fatalf("want %q violation, got nil", rule)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want *Violation, got %T: %v", err, err)
	}
	if v.Rule != rule {
		t.Fatalf("want rule %q, got %q (%v)", rule, v.Rule, v)
	}
	return v
}

func TestEventCleanStatePasses(t *testing.T) {
	a := testAuditor(t)
	rec := record(
		server(0, []core.AuditRequestState{okRequest(1, 0), okRequest(2, 1)}, nil),
		server(1, []core.AuditRequestState{okRequest(3, 1)}, nil),
	)
	if err := a.Event(rec); err != nil {
		t.Fatalf("clean state flagged: %v", err)
	}
	if a.Events() != 1 {
		t.Errorf("Events() = %d, want 1", a.Events())
	}
	if a.Err() != nil {
		t.Errorf("Err() = %v", a.Err())
	}
}

func TestEventViolations(t *testing.T) {
	cases := []struct {
		name string
		rule string
		rec  func() core.AuditEventRecord
	}{
		{"over-allocated bandwidth", "bandwidth", func() core.AuditEventRecord {
			// Two streams at 16+15 Mb/s on a 30 Mb/s server; uncapped
			// clients so the per-request checks stay quiet.
			r1, r2 := okRequest(1, 0), okRequest(2, 0)
			r1.Rate, r1.RecvCap = 16, 0
			r2.Rate, r2.RecvCap = 15, 0
			return record(server(0, []core.AuditRequestState{r1, r2}, nil))
		}},
		{"below minimum flow", "min-flow", func() core.AuditEventRecord {
			r := okRequest(1, 0)
			r.Rate = 2 // < b_view = 3
			return record(server(0, []core.AuditRequestState{r}, nil))
		}},
		{"receive cap exceeded", "receive-cap", func() core.AuditEventRecord {
			r := okRequest(1, 0)
			r.Rate = 31 // > RecvCap = 30
			return record(server(0, []core.AuditRequestState{r}, nil))
		}},
		{"buffer underrun", "buffer-underrun", func() core.AuditEventRecord {
			r := okRequest(1, 0)
			r.Buffer = -1
			return record(server(0, []core.AuditRequestState{r}, nil))
		}},
		{"buffer overflow", "buffer-overflow", func() core.AuditEventRecord {
			r := okRequest(1, 0)
			r.Buffer = 200 // > BufCap = 100
			return record(server(0, []core.AuditRequestState{r}, nil))
		}},
		{"transmission overrun", "overrun", func() core.AuditEventRecord {
			r := okRequest(1, 0)
			r.Sent = 101 // > Size = 100
			return record(server(0, []core.AuditRequestState{r}, nil))
		}},
		{"slots oversubscribed", "slots", func() core.AuditEventRecord {
			reqs := make([]core.AuditRequestState, 11) // > 10 slots
			for i := range reqs {
				reqs[i] = okRequest(int64(i+1), 0)
			}
			return record(server(0, reqs, nil))
		}},
		{"failed server still active", "failed-active", func() core.AuditEventRecord {
			s := server(0, []core.AuditRequestState{okRequest(1, 0)}, nil)
			s.Failed = true
			return record(s)
		}},
		{"served by non-holder", "replica", func() core.AuditEventRecord {
			// Video 0 lives on server 0 only.
			return record(server(1, []core.AuditRequestState{okRequest(1, 0)}, nil))
		}},
		{"hop budget exceeded", "hops", func() core.AuditEventRecord {
			r := okRequest(1, 0)
			r.Hops = 2 // MaxHops = 1
			return record(server(0, []core.AuditRequestState{r}, nil))
		}},
		{"copy rate exceeded", "copy-rate", func() core.AuditEventRecord {
			// Default cap = 2 × b_view = 6 Mb/s.
			c := core.AuditCopyState{Video: 0, Target: 1, Rate: 7, Sent: 1, Size: 100}
			return record(server(0, nil, []core.AuditCopyState{c}))
		}},
		{"copy overrun", "overrun", func() core.AuditEventRecord {
			c := core.AuditCopyState{Video: 0, Target: 1, Rate: 6, Sent: 101, Size: 100}
			return record(server(0, nil, []core.AuditCopyState{c}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testAuditor(t)
			wantRule(t, a.Event(tc.rec()), tc.rule)
		})
	}
	t.Run("run-ahead with workahead disabled", func(t *testing.T) {
		a := testAuditor(t)
		a.cfg.Workahead = false // read by the per-event checks, not Begin
		r := okRequest(1, 0)
		r.Rate = 4 // > b_view = 3
		wantRule(t, a.Event(record(server(0, []core.AuditRequestState{r}, nil))), "workahead-off")
	})
}

func TestEventAllowsExemptStates(t *testing.T) {
	a := testAuditor(t)
	finished := okRequest(1, 0)
	finished.Sent, finished.Rate = 100, 0 // done transmitting: 0 rate is fine
	paused := okRequest(2, 0)
	paused.PausedView, paused.Rate = true, 0 // viewer paused: exempt from min-flow
	suspended := okRequest(3, 1)
	suspended.Suspended, suspended.Rate = true, 0 // mid-switch blackout
	rec := record(server(0, []core.AuditRequestState{finished, paused, suspended}, nil))
	if err := a.Event(rec); err != nil {
		t.Fatalf("exempt states flagged: %v", err)
	}
}

func TestSpareOrderViolations(t *testing.T) {
	grant := func(req int64, remaining, before, extra, cap float64) core.SpareGrant {
		return core.SpareGrant{Request: req, Remaining: remaining, RateBefore: before, Extra: extra, RecvCap: cap}
	}
	t.Run("eftf order broken", func(t *testing.T) {
		a := testAuditor(t)
		// EFTF must feed the smaller remaining volume first.
		err := a.SpareOrder(10, 0, core.EFTF, []core.SpareGrant{
			grant(1, 50, 3, 10, 30),
			grant(2, 20, 3, 10, 30),
		})
		wantRule(t, err, "eftf-order")
	})
	t.Run("lftf order broken", func(t *testing.T) {
		a := testAuditor(t)
		err := a.SpareOrder(10, 0, core.LFTF, []core.SpareGrant{
			grant(1, 20, 3, 10, 30),
			grant(2, 50, 3, 10, 30),
		})
		wantRule(t, err, "eftf-order")
	})
	t.Run("later grant past starved candidate", func(t *testing.T) {
		a := testAuditor(t)
		// Request 1 got nothing and still had receive headroom; feeding
		// request 2 anyway breaks the greedy EFTF property.
		err := a.SpareOrder(10, 0, core.EFTF, []core.SpareGrant{
			grant(1, 20, 3, 0, 30),
			grant(2, 50, 3, 5, 30),
		})
		wantRule(t, err, "eftf-feed")
	})
	t.Run("saturated candidate is not starving", func(t *testing.T) {
		a := testAuditor(t)
		// Request 1 reached its receive cap; request 2 may be fed.
		err := a.SpareOrder(10, 0, core.EFTF, []core.SpareGrant{
			grant(1, 20, 3, 27, 30),
			grant(2, 50, 3, 5, 30),
		})
		if err != nil {
			t.Fatalf("legal EFTF pass flagged: %v", err)
		}
	})
	t.Run("even split has no order", func(t *testing.T) {
		a := testAuditor(t)
		err := a.SpareOrder(10, 0, core.EvenSplit, []core.SpareGrant{
			grant(1, 50, 3, 10, 30),
			grant(2, 20, 3, 10, 30),
		})
		if err != nil {
			t.Fatalf("even-split pass flagged: %v", err)
		}
	})
	// Skipped candidates follow the fed ones in slot order. For each
	// discipline, at(x) maps a position x in feed order (smaller first)
	// to a remaining volume.
	for _, d := range []core.SpareDiscipline{core.EFTF, core.LFTF} {
		at := func(x float64) float64 { return x }
		if d == core.LFTF {
			at = func(x float64) float64 { return 100 - x }
		}
		skip := func(req int64, x, before, cap float64) core.SpareGrant {
			g := grant(req, at(x), before, 0, cap)
			g.Skipped = true
			return g
		}
		// Requests 1 and 2 were fed; 2 is the last fed one, at 30.
		fed := []core.SpareGrant{grant(1, at(20), 3, 27, 30), grant(2, at(30), 3, 5, 30)}
		feed := func(skipped ...core.SpareGrant) []core.SpareGrant {
			return append(append([]core.SpareGrant(nil), fed...), skipped...)
		}
		t.Run(d.String()+"/skipped with headroom ahead of the last fed", func(t *testing.T) {
			a := testAuditor(t)
			err := a.SpareOrder(10, 0, d, feed(skip(3, 40, 3, 30), skip(4, 25, 3, 30)))
			wantRule(t, err, "eftf-order")
		})
		t.Run(d.String()+"/uncapped skipped ahead of the last fed", func(t *testing.T) {
			a := testAuditor(t)
			err := a.SpareOrder(10, 0, d, feed(skip(3, 10, 3, 0)))
			wantRule(t, err, "eftf-order")
		})
		t.Run(d.String()+"/saturated skipped ahead of the last fed", func(t *testing.T) {
			a := testAuditor(t)
			if err := a.SpareOrder(10, 0, d, feed(skip(3, 10, 30, 30), skip(4, 25, 30, 30))); err != nil {
				t.Fatalf("saturated skipped candidates flagged: %v", err)
			}
		})
		t.Run(d.String()+"/skipped behind the last fed in any order", func(t *testing.T) {
			a := testAuditor(t)
			err := a.SpareOrder(10, 0, d, feed(
				skip(5, 90, 3, 30), skip(3, 40, 3, 0), skip(4, 30, 3, 30), skip(6, 60, 3, 30)))
			if err != nil {
				t.Fatalf("skipped candidates behind the feed flagged: %v", err)
			}
		})
		t.Run(d.String()+"/skipped candidate granted spare", func(t *testing.T) {
			a := testAuditor(t)
			g := skip(3, 40, 3, 30)
			g.Extra = 2e-6
			wantRule(t, a.SpareOrder(10, 0, d, feed(g)), "eftf-feed")
		})
	}
}

func TestIntermittentOrderViolations(t *testing.T) {
	g := func(req int64, buf, rate float64, pausedFull bool) core.IntermittentGrant {
		return core.IntermittentGrant{Request: req, Buffer: buf, Rate: rate, PausedFull: pausedFull}
	}
	t.Run("descending buffers", func(t *testing.T) {
		a := testAuditor(t)
		err := a.IntermittentOrder(10, 0, []core.IntermittentGrant{
			g(1, 8, 3, false), g(2, 2, 3, false),
		})
		wantRule(t, err, "intermittent-order")
	})
	t.Run("fed past a drier paused stream", func(t *testing.T) {
		a := testAuditor(t)
		err := a.IntermittentOrder(10, 0, []core.IntermittentGrant{
			g(1, 1, 0, false), g(2, 2, 3, false),
		})
		wantRule(t, err, "intermittent-feed")
	})
	t.Run("paused-full streams are exempt", func(t *testing.T) {
		a := testAuditor(t)
		err := a.IntermittentOrder(10, 0, []core.IntermittentGrant{
			g(1, 1, 3, false), g(2, 8, 0, true), g(3, 9, 3, false),
		})
		if err != nil {
			t.Fatalf("legal intermittent pass flagged: %v", err)
		}
	})
	// After the first drained stream the feed pauses the rest off-heap,
	// so the tail arrives unordered.
	t.Run("unordered unfed tail passes", func(t *testing.T) {
		a := testAuditor(t)
		err := a.IntermittentOrder(10, 0, []core.IntermittentGrant{
			g(1, 1, 3, false), g(2, 4, 0, false), g(3, 9, 0, false), g(4, 6, 0, true), g(5, 4, 0, false),
		})
		if err != nil {
			t.Fatalf("unordered tail flagged: %v", err)
		}
	})
	t.Run("tail stream drier than the drained one", func(t *testing.T) {
		a := testAuditor(t)
		err := a.IntermittentOrder(10, 0, []core.IntermittentGrant{
			g(1, 1, 3, false), g(2, 4, 0, false), g(3, 9, 0, false), g(4, 3, 0, false),
		})
		wantRule(t, err, "intermittent-order")
	})
	t.Run("fed tail stream", func(t *testing.T) {
		a := testAuditor(t)
		err := a.IntermittentOrder(10, 0, []core.IntermittentGrant{
			g(1, 1, 3, false), g(2, 4, 0, false), g(3, 9, 0, false), g(4, 6, 3, false),
		})
		wantRule(t, err, "intermittent-feed")
	})
}

func TestMigrationViolations(t *testing.T) {
	t.Run("self migration", func(t *testing.T) {
		a := testAuditor(t)
		wantRule(t, a.Migration(10, 1, 1, 0, 0, 1, false), "migration-target")
	})
	t.Run("target holds no replica", func(t *testing.T) {
		a := testAuditor(t)
		// Video 0 lives on server 0 only.
		wantRule(t, a.Migration(10, 1, 0, 0, 1, 1, false), "migration-target")
	})
	t.Run("hop budget", func(t *testing.T) {
		a := testAuditor(t)
		wantRule(t, a.Migration(10, 1, 1, 0, 1, 2, false), "hops")
	})
	t.Run("rescue waives the hop budget", func(t *testing.T) {
		a := testAuditor(t)
		if err := a.Migration(10, 1, 1, 0, 1, 5, true); err != nil {
			t.Fatalf("rescue migration flagged: %v", err)
		}
		// The rescued request may then appear with excess hops.
		r := okRequest(1, 1)
		r.Hops = 5
		if err := a.Event(record(server(0, []core.AuditRequestState{r}, nil))); err != nil {
			t.Fatalf("rescued request flagged: %v", err)
		}
	})
}

func TestAdmissionViolations(t *testing.T) {
	t.Run("feasible holder passes", func(t *testing.T) {
		a := testAuditor(t)
		if err := a.Admission(10, 1, 1, false, true); err != nil {
			t.Fatalf("legal admission flagged: %v", err)
		}
	})
	t.Run("infeasible claim", func(t *testing.T) {
		a := testAuditor(t)
		wantRule(t, a.Admission(10, 1, 1, false, false), "admission-feasible")
	})
	t.Run("server holds no replica", func(t *testing.T) {
		a := testAuditor(t)
		// Video 0 lives on server 0 only.
		wantRule(t, a.Admission(10, 0, 1, true, true), "admission-feasible")
	})
	t.Run("replication unlocks the holder check", func(t *testing.T) {
		a := testAuditor(t)
		if err := a.Replication(10, 0, 0, 1, 100); err != nil {
			t.Fatalf("legal replication flagged: %v", err)
		}
		if err := a.Admission(11, 0, 1, false, true); err != nil {
			t.Fatalf("post-replication admission flagged: %v", err)
		}
	})
}

func TestChainViolations(t *testing.T) {
	a := testAuditor(t)
	if err := a.Chain(10, 1); err != nil {
		t.Fatalf("legal chain flagged: %v", err)
	}
	wantRule(t, a.Chain(10, 2), "chain") // MaxChain = 1
	wantRule(t, a.Chain(10, 0), "chain")
}

func TestReplicationViolations(t *testing.T) {
	t.Run("copied from non-holder", func(t *testing.T) {
		a := testAuditor(t)
		wantRule(t, a.Replication(10, 0, 1, 0, 100), "replica")
	})
	t.Run("duplicate install", func(t *testing.T) {
		a := testAuditor(t)
		// Video 1 already lives on server 1.
		wantRule(t, a.Replication(10, 1, 0, 1, 100), "replica-dup")
	})
	t.Run("storage overflow", func(t *testing.T) {
		a := testAuditor(t)
		// Server 1 has 300 of 1000 Mb used.
		wantRule(t, a.Replication(10, 0, 0, 1, 800), "storage")
	})
	t.Run("install updates the replica map", func(t *testing.T) {
		a := testAuditor(t)
		if err := a.Replication(10, 0, 0, 1, 100); err != nil {
			t.Fatalf("legal replication flagged: %v", err)
		}
		// Server 1 may now serve video 0 …
		if err := a.Event(record(server(1, []core.AuditRequestState{okRequest(1, 0)}, nil))); err != nil {
			t.Fatalf("post-replication serving flagged: %v", err)
		}
		// … and may migrate video-0 streams in.
		if err := a.Migration(11, 2, 0, 0, 1, 1, false); err != nil {
			t.Fatalf("post-replication migration flagged: %v", err)
		}
	})
}

func TestReplicaModel(t *testing.T) {
	t.Run("cold recovery wipes the server", func(t *testing.T) {
		a := testAuditor(t)
		if err := a.Failure(10, 0, 0, 0, 0); err != nil {
			t.Fatalf("failure flagged: %v", err)
		}
		if err := a.Recovery(11, 0, true); err != nil {
			t.Fatalf("cold recovery flagged: %v", err)
		}
		// Server 0 lost videos 0 and 1; server 1 still holds video 1.
		wantRule(t, a.Admission(12, 0, 0, false, true), "admission-feasible")
		wantRule(t, a.Admission(12, 1, 0, false, true), "admission-feasible")
		if err := a.Admission(12, 1, 1, false, true); err != nil {
			t.Fatalf("admission on the untouched holder flagged: %v", err)
		}
		// A fresh replica can be installed on the wiped server.
		if err := a.Replication(13, 1, 1, 0, 100); err != nil {
			t.Fatalf("replication onto the wiped server flagged: %v", err)
		}
	})
	t.Run("warm recovery keeps replicas", func(t *testing.T) {
		a := testAuditor(t)
		if err := a.Failure(10, 0, 0, 0, 0); err != nil {
			t.Fatalf("failure flagged: %v", err)
		}
		if err := a.Recovery(11, 0, false); err != nil {
			t.Fatalf("warm recovery flagged: %v", err)
		}
		if err := a.Admission(12, 0, 0, false, true); err != nil {
			t.Fatalf("admission after warm recovery flagged: %v", err)
		}
	})
	t.Run("unknown server holds nothing", func(t *testing.T) {
		a := testAuditor(t)
		for _, sid := range []int32{-1, 2, 7} {
			wantRule(t, a.Admission(10, 1, sid, false, true), "admission-feasible")
			wantRule(t, a.Migration(10, 1, 1, 0, sid, 1, false), "migration-target")
			wantRule(t, a.Replication(10, 1, sid, 0, 100), "replica")
			wantRule(t, a.Replication(10, 0, 0, sid, 100), "replica")
		}
		wantRule(t, a.Event(record(server(2, []core.AuditRequestState{okRequest(1, 1)}, nil))), "replica")
	})
}

func TestEndAccounting(t *testing.T) {
	good := core.Metrics{
		Arrivals: 10, Accepted: 7, Rejected: 3,
		Completions: 6, DroppedStreams: 1,
		AcceptedBytes: 700, DeliveredBytes: 650,
		Migrations: 4, ChainLengthTotal: 2,
	}
	a := testAuditor(t)
	if err := a.End(100, good); err != nil {
		t.Fatalf("consistent metrics flagged: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*core.Metrics)
	}{
		{"arrival identity", func(m *core.Metrics) { m.Rejected = 4 }},
		{"drain identity", func(m *core.Metrics) { m.Completions = 7 }},
		{"delivered exceeds accepted", func(m *core.Metrics) { m.DeliveredBytes = 701 }},
		{"chain total exceeds migrations", func(m *core.Metrics) { m.ChainLengthTotal = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testAuditor(t)
			m := good
			tc.mutate(&m)
			wantRule(t, a.End(100, m), "accounting")
		})
	}
}

func TestViolationError(t *testing.T) {
	a := testAuditor(t)
	err := a.Event(record(server(1, []core.AuditRequestState{okRequest(7, 0)}, nil)))
	v := wantRule(t, err, "replica")
	if v.Server != 1 || v.Request != 7 || v.Seq != 1 || v.Event != "wake" {
		t.Errorf("violation context = %+v", v)
	}
	msg := v.Error()
	for _, want := range []string{"replica", "wake", "server 1", "request 7"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if len(a.Violations()) != 1 {
		t.Errorf("Violations() = %d entries", len(a.Violations()))
	}
}

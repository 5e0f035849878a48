package core

import "testing"

// TestAuditSnapshotAtSwitchDeadline syncs every live server after every
// 7th event of an audited run. Seed 30's cluster (DRM, patching, a 16 s
// switch delay, degraded playback) then has a server synced exactly at
// a slot's switch deadline, with no round since, before the wake queued
// for that instant: the slot reads rate 0 at its deadline, which is
// still the blackout, not a min-flow violation.
func TestAuditSnapshotAtSwitchDeadline(t *testing.T) {
	_, mkEngine := planEquivParts(t, 30)
	e := mkEngine()
	atDeadline := 0
	for n := 0; e.Step(); n++ {
		if n%7 != 0 {
			continue
		}
		for _, s := range e.servers {
			if s.failed {
				continue
			}
			s.syncAll(e.now)
			for j, susp := range s.ln.susp {
				if susp == e.now && s.ln.rate[j] == 0 {
					atDeadline++
				}
			}
		}
	}
	if e.auditErr != nil {
		t.Fatalf("audit: %v", e.auditErr)
	}
	if atDeadline == 0 {
		t.Error("no server was synced at a switch deadline with its slot still at rate 0")
	}
}

// TestAuditSnapshotPastSwitchDeadline is the counter-case: a slot left
// at rate 0, with no round since, reads as suspended through its switch
// deadline and as not suspended once synced strictly past it, where the
// auditor's min-flow rule rejects a rate-0, unsuspended, unfinished row
// (internal/audit's TestEventViolations pins that rule).
func TestAuditSnapshotPastSwitchDeadline(t *testing.T) {
	cat := fixedCatalog(t, 1, 600)
	cfg := Config{
		ServerBandwidth: []float64{30},
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  100,
		Migration:       MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 1, SwitchDelay: 10},
	}
	e, err := NewEngine(cfg, cat, manualLayout(t, cat, [][]int{{0}}, 1), &scriptSource{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.servers[0]
	// 60 Mb staged ahead of the viewer: playback runs on through the
	// blackout.
	r := &request{id: 1, size: cat.Video(0).Size, carrySent: 60, bufCap: 100}
	s.attach(r)
	s.setSuspend(r, 10) // mid-switch until t = 10
	e.allocate(s, 0)
	suspended := func(at float64) bool {
		s.syncAll(at)
		row := e.auditRecord(AuditArrival, -1, 0).Servers.Server(0).Requests[0]
		if row.Rate != 0 {
			t.Fatalf("t=%g: slot at %g Mb/s, want the rate 0 of its blackout", at, row.Rate)
		}
		return row.Suspended
	}
	for _, c := range []struct {
		at   float64
		want bool
	}{{5, true}, {10, true}, {10.5, false}} {
		if got := suspended(c.at); got != c.want {
			t.Errorf("slot synced at t=%g with its switch deadline at 10: Suspended = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestAuditSnapshotKeepsOneServerRows pins the snapshot's memory: the
// engine streams it one server at a time into one reused row set, so
// after an audited run that row set is sized to the largest server
// load, well below the cluster's stream count, and Reset keeps it.
func TestAuditSnapshotKeepsOneServerRows(t *testing.T) {
	for _, seed := range []uint64{2, 3, 6} {
		_, mkEngine := planEquivParts(t, seed)
		e := mkEngine()
		serverPeak, clusterPeak := 0, 0
		for e.Step() {
			total := 0
			for _, s := range e.servers {
				total += s.load()
				serverPeak = max(serverPeak, s.load())
			}
			clusterPeak = max(clusterPeak, total)
		}
		if e.auditErr != nil {
			t.Fatalf("seed %d: audit: %v", seed, e.auditErr)
		}
		if clusterPeak < 3*serverPeak {
			t.Fatalf("seed %d: cluster peak %d streams is under three servers' peak (%d): the check cannot tell one server's rows from the cluster's",
				seed, clusterPeak, serverPeak)
		}
		rows := cap(e.auditSnap.row.Requests)
		if rows < serverPeak || rows >= clusterPeak {
			t.Errorf("seed %d: the snapshot keeps %d rows; want one server's, at least its peak load %d and below the cluster's peak of %d streams",
				seed, rows, serverPeak, clusterPeak)
		}
		if err := e.Reset(e.cfg, e.cat, e.layout, &scriptSource{}); err != nil {
			t.Fatal(err)
		}
		if got := cap(e.auditSnap.row.Requests); got != rows {
			t.Errorf("seed %d: Reset left %d snapshot rows of %d", seed, got, rows)
		}
	}
}

// TestAuditSnapshotZeroAlloc pins that one sampled snapshot and the
// auditor's checks of it allocate nothing once the rows have grown
// (AllocsPerRun's warm-up call), on a loaded mid-run cluster.
func TestAuditSnapshotZeroAlloc(t *testing.T) {
	_, mkEngine := planEquivParts(t, 6)
	e := mkEngine()
	for e.Step() && e.now < 3600 {
	}
	if e.auditErr != nil {
		t.Fatalf("audit: %v", e.auditErr)
	}
	tap := e.audit.(*laneCheckTap).AuditTap
	snapshot := func() {
		if err := tap.Event(e.auditRecord(AuditWake, -1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, snapshot); got != 0 {
		t.Errorf("a snapshot and its checks allocate %.1f per op, want 0", got)
	}
}

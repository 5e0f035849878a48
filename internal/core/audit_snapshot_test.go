package core

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

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
	r := &request{id: 1, size: cat.Video(0).Size}
	attachSlot(s, r, slotState{sent: 60, bufCap: 100})
	s.setSuspend(r, 10) // mid-switch until t = 10
	e.allocate(s, 0)
	suspended := func(at float64) bool {
		s.syncAll(at)
		st := e.auditRecord(AuditArrival, -1, 0).Servers.Server(0)
		if st.Rate[0] != 0 {
			t.Fatalf("t=%g: slot at %g Mb/s, want the rate 0 of its blackout", at, st.Rate[0])
		}
		return st.Suspended(0)
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

// laneColumns returns the lane's columns, found by reflection so a
// column added later cannot escape the snapshot tests: each column's
// name and its entries' bytes, aliasing the lane.
func laneColumns(ln *lane) map[string][]byte {
	v := reflect.ValueOf(ln).Elem()
	cols := make(map[string][]byte)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		n := f.Len() * int(f.Type().Elem().Size())
		cols[v.Type().Field(i).Name] = unsafe.Slice((*byte)(f.UnsafePointer()), n)
	}
	return cols
}

// TestAuditSnapshotViewsTheLane pins that the snapshot copies no
// stream: every stream column of Server(i)'s state is server i's own
// lane column, in place and at its length, and the stream keeps no
// per-stream storage of its own, only the copy-job rows. Seeds 2, 3
// and 6 of planEquivParts spread several servers' streams through
// DRM, faults and replication.
func TestAuditSnapshotViewsTheLane(t *testing.T) {
	for _, seed := range []uint64{2, 3, 6} {
		_, mkEngine := planEquivParts(t, seed)
		e := mkEngine()
		checked, peakCopies := 0, 0
		for n := 0; e.Step(); n++ {
			for _, s := range e.servers {
				peakCopies = max(peakCopies, len(s.copies))
			}
			if n%13 != 0 {
				continue
			}
			snap := e.auditRecord(AuditWake, -1, 0).Servers
			for i, s := range e.servers {
				st := reflect.ValueOf(snap.Server(i)).Elem()
				for name, col := range laneColumns(&s.ln) {
					f := st.FieldByName(strings.ToUpper(name[:1]) + name[1:])
					if !f.IsValid() {
						t.Fatalf("seed %d: the lane column %s has no view in AuditServerState", seed, name)
					}
					view := unsafe.Slice((*byte)(f.UnsafePointer()), f.Len()*int(f.Type().Elem().Size()))
					if len(view) != len(col) || len(col) > 0 && &view[0] != &col[0] {
						t.Fatalf("seed %d, event %d, server %d: the %s view is not the lane column in place", seed, n, i, name)
					}
					checked += len(col)
				}
			}
		}
		if e.auditErr != nil {
			t.Fatalf("seed %d: audit: %v", seed, e.auditErr)
		}
		if checked == 0 {
			t.Fatalf("seed %d: no snapshot viewed a stream", seed)
		}
		if c := cap(e.auditSnap.row.Copies); c > peakCopies {
			t.Errorf("seed %d: the snapshot keeps %d copy rows; no server sourced more than %d copy jobs", seed, c, peakCopies)
		}
	}
}

// TestAuditEventLeavesLanesBitIdentical pins that the views are
// read-only: an audited Event, the snapshot and every check the real
// auditor runs on it, leaves every lane column of every server
// bit-identical, at every 11th event of an audited multi-server run.
func TestAuditEventLeavesLanesBitIdentical(t *testing.T) {
	_, mkEngine := planEquivParts(t, 6)
	e := mkEngine()
	tap := e.audit.(*laneCheckTap).AuditTap
	audits := 0
	for n := 0; e.Step(); n++ {
		if n%11 != 0 {
			continue
		}
		before := make([]map[string][]byte, len(e.servers))
		for i, s := range e.servers {
			before[i] = make(map[string][]byte)
			for name, col := range laneColumns(&s.ln) {
				before[i][name] = slices.Clone(col)
			}
		}
		if err := tap.Event(e.auditRecord(AuditWake, -1, 0)); err != nil {
			t.Fatal(err)
		}
		audits++
		for i, s := range e.servers {
			for name, col := range laneColumns(&s.ln) {
				if !bytes.Equal(col, before[i][name]) {
					t.Fatalf("event %d: the audit changed server %d's %s column", n, i, name)
				}
			}
		}
	}
	if e.auditErr != nil {
		t.Fatalf("audit: %v", e.auditErr)
	}
	if audits == 0 {
		t.Fatal("no event was audited")
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

package core

import (
	"runtime"
	"testing"
)

// BenchmarkAuditSnapshot times one sampled audit snapshot and the real
// auditor's checks of it, at the scale-faulttol cell's size: 200
// servers of 100 streams each (benchDRMEngine's saturated cluster),
// every stream at its minimum flow. B/op and allocs/op are a snapshot's
// steady-state allocations; live-B is the heap the first snapshot
// leaves live (its rows, kept for later snapshots, and the auditor's
// per-server counts), measured across a GC on each side.
func BenchmarkAuditSnapshot(b *testing.B) {
	e := benchDRMEngine(b, false)
	for _, s := range e.servers {
		e.allocate(s, 0)
	}
	e.SetAuditTap(NewTestAuditor(b))
	e.auditBegin()
	e.auditSeq = 1
	if err := e.audit.BeginEvent(e.auditSeq, 0, AuditWake, -1, 0); err != nil {
		b.Fatal(err)
	}
	snapshot := func() {
		if err := e.audit.Event(e.auditRecord(AuditWake, -1, 0)); err != nil {
			b.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	snapshot()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshot()
	}
	b.ReportMetric(float64(after.HeapAlloc)-float64(before.HeapAlloc), "live-B")
}

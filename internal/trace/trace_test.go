package trace

import (
	"strings"
	"testing"
)

func fill(r *Recorder) {
	r.OnAdmit(1, 10, 3, 0, false)
	r.OnAdmit(2, 11, 4, 1, true)
	r.OnReject(3, 5)
	r.OnMigrate(4, 10, 3, 0, 1, false)
	r.OnFinish(5, 10, 3, 1)
	r.OnFailure(6, 0, 2, 1, 0)
	r.OnRecovery(7, 0, true)
}

func TestRecorderCounts(t *testing.T) {
	var r Recorder
	fill(&r)
	counts := map[Kind]int{}
	for _, ev := range r.Events {
		counts[ev.Kind]++
	}
	want := map[Kind]int{Admit: 2, Reject: 1, Migrate: 1, Finish: 1, Failure: 1, Recovery: 1}
	if len(counts) != len(want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s events = %d, want %d", k, counts[k], n)
		}
	}
	if len(r.Events) != 7 {
		t.Errorf("recorded %d events, want 7", len(r.Events))
	}
	rec := r.Events[6]
	if rec.Kind != Recovery || rec.From != 0 || !rec.Cold {
		t.Errorf("recovery event = %+v", rec)
	}
}

func TestEventFields(t *testing.T) {
	var r Recorder
	fill(&r)
	ev := r.Events[1] // the DRM admission
	if ev.Kind != Admit || ev.Time != 2 || ev.Request != 11 || ev.Video != 4 || ev.From != 1 || !ev.ViaDRM {
		t.Errorf("admit event = %+v", ev)
	}
	mig := r.Events[3]
	if mig.Kind != Migrate || mig.From != 0 || mig.To != 1 || mig.Rescue {
		t.Errorf("migrate event = %+v", mig)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Admit: "admit", Reject: "reject", Migrate: "migrate",
		Finish: "finish", Failure: "failure", Recovery: "recovery",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestWriteCSV(t *testing.T) {
	var r Recorder
	fill(&r)
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 {
		t.Fatalf("CSV has %d lines, want header + 7", len(lines))
	}
	if lines[0] != "time,kind,request,video,from,to,via_drm,rescue" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "admit") || !strings.Contains(lines[2], "true") {
		t.Errorf("DRM admit row = %q", lines[2])
	}
	if !strings.Contains(lines[3], "reject") {
		t.Errorf("reject row = %q", lines[3])
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.after--
	if w.after < 0 {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "write failed" }

func TestWriteCSVPropagatesErrors(t *testing.T) {
	var r Recorder
	fill(&r)
	if err := r.WriteCSV(&failWriter{after: 0}); err == nil {
		t.Error("header write error swallowed")
	}
	if err := r.WriteCSV(&failWriter{after: 2}); err == nil {
		t.Error("row write error swallowed")
	}
}

func TestRecorderReplicate(t *testing.T) {
	var r Recorder
	r.OnReplicate(7, 3, 0, 2)
	if len(r.Events) != 1 {
		t.Fatalf("recorder = %+v", r)
	}
	ev := r.Events[0]
	if ev.Kind != Replicate || ev.Video != 3 || ev.From != 0 || ev.To != 2 {
		t.Errorf("event = %+v", ev)
	}
	if Replicate.String() != "replicate" {
		t.Error("kind name")
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "replicate") {
		t.Errorf("CSV missing replicate row: %s", b.String())
	}
}

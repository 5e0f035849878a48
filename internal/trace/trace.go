// Package trace records engine lifecycle events for debugging,
// validation, and post-hoc analysis. A Recorder implements
// core.Observer; events can be inspected programmatically or dumped as
// CSV. Tracing every event of a long run is memory-hungry; the run's
// Result already counts admissions, rejections, migrations and faults.
package trace

import (
	"fmt"
	"io"
)

// Kind labels one recorded event.
type Kind uint8

// Event kinds, in the order they tend to occur for a stream.
const (
	Admit Kind = iota
	Reject
	Migrate
	Finish
	Failure
	Replicate
	Recovery
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Admit:
		return "admit"
	case Reject:
		return "reject"
	case Migrate:
		return "migrate"
	case Finish:
		return "finish"
	case Failure:
		return "failure"
	case Replicate:
		return "replicate"
	case Recovery:
		return "recovery"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence. Fields not meaningful for a kind
// are zero (e.g. To for an admission).
type Event struct {
	Time    float64
	Kind    Kind
	Request int64
	Video   int
	From    int // source server (admission target, migration source)
	To      int // migration destination
	ViaDRM  bool
	Rescue  bool
	// Cold marks a recovery that wiped the server's storage. Not part
	// of the CSV dump (the column set predates the fault model).
	Cold bool
}

// Recorder implements core.Observer, recording every event in order.
type Recorder struct {
	Events []Event
}

// OnAdmit implements core.Observer.
func (r *Recorder) OnAdmit(t float64, reqID int64, video, server int, viaMigration bool) {
	r.Events = append(r.Events, Event{Time: t, Kind: Admit, Request: reqID, Video: video, From: server, ViaDRM: viaMigration})
}

// OnReject implements core.Observer.
func (r *Recorder) OnReject(t float64, video int) {
	r.Events = append(r.Events, Event{Time: t, Kind: Reject, Video: video})
}

// OnMigrate implements core.Observer.
func (r *Recorder) OnMigrate(t float64, reqID int64, video, from, to int, rescue bool) {
	r.Events = append(r.Events, Event{Time: t, Kind: Migrate, Request: reqID, Video: video, From: from, To: to, Rescue: rescue})
}

// OnFinish implements core.Observer.
func (r *Recorder) OnFinish(t float64, reqID int64, video, server int) {
	r.Events = append(r.Events, Event{Time: t, Kind: Finish, Request: reqID, Video: video, From: server})
}

// OnFailure implements core.Observer.
func (r *Recorder) OnFailure(t float64, server int, rescued, dropped, parked int) {
	r.Events = append(r.Events, Event{Time: t, Kind: Failure, From: server})
}

// OnRecovery implements core.Observer.
func (r *Recorder) OnRecovery(t float64, server int, cold bool) {
	r.Events = append(r.Events, Event{Time: t, Kind: Recovery, From: server, Cold: cold})
}

// OnReplicate implements core.Observer.
func (r *Recorder) OnReplicate(t float64, video, from, to int) {
	r.Events = append(r.Events, Event{Time: t, Kind: Replicate, Video: video, From: from, To: to})
}

// WriteCSV dumps the recorded events as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time,kind,request,video,from,to,via_drm,rescue"); err != nil {
		return err
	}
	for _, e := range r.Events {
		if _, err := fmt.Fprintf(w, "%.3f,%s,%d,%d,%d,%d,%t,%t\n",
			e.Time, e.Kind, e.Request, e.Video, e.From, e.To, e.ViaDRM, e.Rescue); err != nil {
			return err
		}
	}
	return nil
}

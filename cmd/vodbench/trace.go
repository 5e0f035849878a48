package main

import (
	"fmt"
	"math"
	"time"

	"semicont"
	"semicont/internal/audit"
	"semicont/internal/core"
	"semicont/internal/stats"
	"semicont/internal/sweep"
	wl "semicont/internal/workload"
)

// Event-level span kinds. A Step is an arrival when it moved
// Metrics.Arrivals, a fault when it moved a failure, recovery or
// brownout counter, and a wake otherwise (retry, park and pause ticks
// included). admit is the controller's part of an arrival step, up to
// the OnAdmit/OnReject callback; next is each workload.Next call; audit
// is each step's time inside the auditor.
const (
	kindWake = iota
	kindArrival
	kindAdmit
	kindFault
	kindNext
	kindAudit
	numKinds
)

var kindNames = [numKinds]string{"core.wake", "core.arrival", "core.admit", "core.fault", "workload.next", "audit"}

// sampleEvery is the tracer's sampling stride: it times one step in
// sampleEvery, chosen at random, because a clock read can cost a fifth
// of a cheap step (doc.go). Counts stay exact.
const sampleEvery = 16

// kindAgg aggregates the spans of one kind: how many there were, and the
// durations of the timed ones, in a sketch (ns) and as a sum.
type kindAgg struct {
	n   int64
	sum time.Duration
	sk  stats.Sketch
}

func (k *kindAgg) time(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k.sum += d
	k.sk.Add(float64(d))
}

// total estimates the time spent in every span of the kind: the timed
// spans' mean times their count.
func (k *kindAgg) total() time.Duration {
	if k.sk.N() == 0 {
		return 0
	}
	return time.Duration(float64(k.sum) / float64(k.sk.N()) * float64(k.n))
}

func (k *kindAgg) merge(o *kindAgg) {
	k.n += o.n
	k.sum += o.sum
	k.sk.Merge(&o.sk)
}

// tail returns the q-quantile of sk, or its median when fewer than ten
// samples lie beyond q: a tail with fewer is not measured.
func tail(sk *stats.Sketch, q float64) float64 {
	if float64(sk.N())*(1-q) < 10 {
		q = 0.5
	}
	return sk.Quantile(q)
}

// epoch anchors clock. time.Since of a monotonic reading costs one
// clock read where time.Now costs two.
var epoch = time.Now()

// clock is the time since epoch.
func clock() time.Duration { return time.Since(epoch) }

// tracer times one job's event loop from outside the engine: it
// classifies every Step and times a sample of them, using the observer,
// arrival-source and audit wrappers to split a timed step into its
// parts. It is the job's core.Observer.
type tracer struct {
	kinds   [numKinds]kindAgg
	loop    time.Duration // wall time of the Step loop
	steps   int64
	audited bool   // the job has an auditor, so every step is an audit span
	rng     uint64 // xorshift state choosing the timed steps

	// Per-step state: whether this step is timed; the time it spent in
	// workload.Next and in the auditor so far; whether the controller
	// decided, and when, with the audit time up to then.
	timed                    bool
	nextNs, auditNs          time.Duration
	decidedStep              bool
	decided, auditAtDecision time.Duration
}

func (tr *tracer) merge(o *tracer) {
	for k := range tr.kinds {
		tr.kinds[k].merge(&o.kinds[k])
	}
	tr.loop += o.loop
	tr.steps += o.steps
}

// sample advances the xorshift stream and reports whether the next step
// is timed.
func (tr *tracer) sample() bool {
	if tr.rng == 0 {
		tr.rng = 0x9e3779b97f4a7c15
	}
	tr.rng ^= tr.rng << 13
	tr.rng ^= tr.rng >> 7
	tr.rng ^= tr.rng << 17
	return tr.rng%sampleEvery == 0
}

// stepLoop runs eng to completion one Step at a time, classifying every
// step and timing the sampled ones by their self time: the step's wall
// time less the time spent in workload.Next and in the auditor.
func (tr *tracer) stepLoop(eng *core.Engine) {
	m := eng.Metrics()
	start := clock()
	for {
		arrivals, faults := m.Arrivals, faultEvents(m)
		tr.nextNs, tr.auditNs, tr.decidedStep = 0, 0, false
		tr.timed = tr.sample()
		var t0 time.Duration
		if tr.timed {
			t0 = clock()
		}
		if !eng.Step() {
			break
		}
		var now time.Duration
		if tr.timed {
			now = clock()
		}
		tr.steps++
		kind := kindWake
		switch {
		case m.Arrivals != arrivals:
			kind = kindArrival
			if tr.decidedStep {
				admit := &tr.kinds[kindAdmit]
				admit.n++
				if tr.timed {
					admit.time(tr.decided - t0 - tr.nextNs - tr.auditAtDecision)
				}
			}
		case faultEvents(m) != faults:
			kind = kindFault
		}
		tr.kinds[kind].n++
		if tr.audited {
			tr.kinds[kindAudit].n++
		}
		if tr.timed {
			tr.kinds[kind].time(now - t0 - tr.nextNs - tr.auditNs)
			if tr.audited {
				tr.kinds[kindAudit].time(tr.auditNs)
			}
		}
	}
	tr.timed = false
	tr.loop += clock() - start
}

// faultEvents sums the counters a fault step moves.
func faultEvents(m *core.Metrics) int64 {
	return m.Failures + m.Recoveries + m.Brownouts + m.BrownoutRestores
}

func (tr *tracer) decide() {
	if !tr.decidedStep {
		tr.decidedStep = true
		if tr.timed {
			tr.decided = clock()
			tr.auditAtDecision = tr.auditNs
		}
	}
}

// OnAdmit and OnReject mark the end of the controller's decision.
func (tr *tracer) OnAdmit(float64, int64, int, int, bool)        { tr.decide() }
func (tr *tracer) OnReject(float64, int)                         { tr.decide() }
func (tr *tracer) OnMigrate(float64, int64, int, int, int, bool) {}
func (tr *tracer) OnFinish(float64, int64, int, int)             {}
func (tr *tracer) OnFailure(float64, int, int, int, int)         {}
func (tr *tracer) OnRecovery(float64, int, bool)                 {}
func (tr *tracer) OnReplicate(float64, int, int, int)            {}

// timedSource counts every workload.Next call and times those inside
// timed steps.
type timedSource struct {
	src core.ArrivalSource
	tr  *tracer
}

func (s timedSource) Next() wl.Request {
	next := &s.tr.kinds[kindNext]
	next.n++
	if !s.tr.timed {
		return s.src.Next()
	}
	start := clock()
	r := s.src.Next()
	d := clock() - start
	s.tr.nextNs += d
	next.time(d)
	return r
}

// timedAudit delegates every tap to the scenario's own auditor and, in
// timed steps, adds the time spent there to the step's audit time. It
// wraps an auditor the scenario already attaches; attaching a tap to an
// unaudited run would make the engine build audit records it otherwise
// skips (doc.go).
type timedAudit struct {
	a  *audit.Auditor
	tr *tracer
}

func (t timedAudit) start() time.Duration {
	if !t.tr.timed {
		return 0
	}
	return clock()
}

func (t timedAudit) since(start time.Duration) {
	if t.tr.timed {
		t.tr.auditNs += clock() - start
	}
}

func (t timedAudit) Begin(b core.AuditBegin) error {
	defer t.since(t.start())
	return t.a.Begin(b)
}

func (t timedAudit) BeginEvent(seq uint64, at float64, kind core.AuditEventKind, server int32, req int64) error {
	defer t.since(t.start())
	return t.a.BeginEvent(seq, at, kind, server, req)
}

func (t timedAudit) Event(rec core.AuditEventRecord) error {
	defer t.since(t.start())
	return t.a.Event(rec)
}

func (t timedAudit) SpareOrder(at float64, server int32, d core.SpareDiscipline, grants []core.SpareGrant) error {
	defer t.since(t.start())
	return t.a.SpareOrder(at, server, d, grants)
}

func (t timedAudit) IntermittentOrder(at float64, server int32, grants []core.IntermittentGrant) error {
	defer t.since(t.start())
	return t.a.IntermittentOrder(at, server, grants)
}

func (t timedAudit) Admission(at float64, video, server int32, viaDRM, feasible bool) error {
	defer t.since(t.start())
	return t.a.Admission(at, video, server, viaDRM, feasible)
}

func (t timedAudit) Migration(at float64, req int64, video, from, to, hops int32, rescue bool) error {
	defer t.since(t.start())
	return t.a.Migration(at, req, video, from, to, hops, rescue)
}

func (t timedAudit) Failure(at float64, server int32, rescued, dropped, parked int) error {
	defer t.since(t.start())
	return t.a.Failure(at, server, rescued, dropped, parked)
}

func (t timedAudit) Recovery(at float64, server int32, cold bool) error {
	defer t.since(t.start())
	return t.a.Recovery(at, server, cold)
}

func (t timedAudit) Brownout(at float64, server int32, frac float64, rescued, dropped, parked int) error {
	defer t.since(t.start())
	return t.a.Brownout(at, server, frac, rescued, dropped, parked)
}

func (t timedAudit) BrownoutEnd(at float64, server int32) error {
	defer t.since(t.start())
	return t.a.BrownoutEnd(at, server)
}

func (t timedAudit) Shed(at float64, video, class int32, util, watermark float64) error {
	defer t.since(t.start())
	return t.a.Shed(at, video, class, util, watermark)
}

func (t timedAudit) EdgeServe(at float64, video int32, prefixMb, catchupMb, sharedMb, suffixMb, sizeMb float64, batched bool) error {
	defer t.since(t.start())
	return t.a.EdgeServe(at, video, prefixMb, catchupMb, sharedMb, suffixMb, sizeMb, batched)
}

func (t timedAudit) Chain(at float64, length int) error {
	defer t.since(t.start())
	return t.a.Chain(at, length)
}

func (t timedAudit) Replication(at float64, video, from, to int32, size float64) error {
	defer t.since(t.start())
	return t.a.Replication(at, video, from, to, size)
}

func (t timedAudit) End(at float64, m core.Metrics) error {
	defer t.since(t.start())
	return t.a.End(at, m)
}

// jobRecord is one traced job: its result, its tracer, the clock
// readings its spans are built from, and the wall time of the same job
// through semicont.Run.
type jobRecord struct {
	res        *semicont.Result
	tr         tracer
	marks      [numStages + 1]time.Time
	start, end time.Time
	untraced   time.Duration
	cell       time.Duration // every run of the job
}

// tracedPairs is how many times runTraced runs each job both ways. Two
// runs of one job back to back differed by up to 40% on a noisy host;
// the faster of two of each kind, in the order untraced, traced,
// traced, untraced or its mirror, is far steadier.
const tracedPairs = 2

// runTraced runs jobs through the staged pipeline on a sweep.Grid of
// the given size and returns their records in job order. Each job runs
// tracedPairs times traced, each with a tracer of its own, and as many
// times through semicont.Run, alternating which goes first (the
// untraced run when i+parity+pair is even), so that trace.overhead
// compares the two under the same host conditions. A job's record is
// its fastest traced run, with the fastest untraced time; a job whose
// traced and untraced results differ fails.
func runTraced(jobs []semicont.Scenario, workers, parity int) ([]*jobRecord, error) {
	g := sweep.NewGrid[*jobRecord](sweep.New(workers))
	g.Cell(len(jobs), func(i int) (*jobRecord, error) {
		cellStart := time.Now()
		var best *jobRecord
		untraced := time.Duration(math.MaxInt64)
		var want string
		for pair := range tracedPairs {
			untracedFirst := (i+parity+pair)%2 == 0
			if untracedFirst {
				if err := runUntraced(jobs[i], &untraced, &want); err != nil {
					return nil, err
				}
			}
			rec, err := runTracedJob(jobs[i])
			if err != nil {
				return nil, err
			}
			if !untracedFirst {
				if err := runUntraced(jobs[i], &untraced, &want); err != nil {
					return nil, err
				}
			}
			got, err := digest(canonical(rec.res))
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("vodbench: job %d: traced output digest %s, semicont.Run %s", i, got, want)
			}
			if best == nil || rec.end.Sub(rec.start) < best.end.Sub(best.start) {
				best = rec
			}
		}
		best.untraced = untraced
		best.cell = time.Since(cellStart)
		return best, nil
	})
	cells, err := g.Wait()
	if err != nil {
		return nil, err
	}
	return cells[0], nil
}

// runTracedJob runs sc through the staged pipeline with a tracer of its
// own.
func runTracedJob(sc semicont.Scenario) (*jobRecord, error) {
	rec := &jobRecord{start: time.Now()}
	eng, _ := enginePool.Get().(*core.Engine)
	if eng == nil {
		eng = new(core.Engine)
	}
	j, err := prepare(sc, eng, &rec.tr)
	if err != nil {
		return nil, err
	}
	rec.marks = j.marks
	if rec.res, err = j.run(&rec.tr); err != nil {
		return nil, err
	}
	rec.end = time.Now()
	enginePool.Put(eng)
	return rec, nil
}

// runUntraced runs sc through semicont.Run, lowers *fastest to its wall
// time if shorter, and sets *digested to the digest of its result.
func runUntraced(sc semicont.Scenario, fastest *time.Duration, digested *string) error {
	start := time.Now()
	res, err := semicont.Run(sc)
	if err != nil {
		return err
	}
	*fastest = min(*fastest, time.Since(start))
	*digested, err = digest(canonical(res))
	return err
}

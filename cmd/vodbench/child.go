package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"semicont"
	"semicont/internal/core"
)

// A child process does the measuring; the parent only spawns children,
// checks their outputs and reports. Each child prints one childReport
// as JSON on standard output. The untraced child's report gives the
// end-to-end metrics, the traced child's the per-layer ones.

// setupReps is how many cold set-ups a child times before each round.
const setupReps = 31

// warmupScale sizes the warm-up round every child runs before timing.
const warmupScale = 0.1

// round is one timed untraced round.
type round struct {
	PartNs []int64 // wall time of each part
	// RefNs[k] is the reference kernel's time right before part k, and
	// its last entry the time right after the last part.
	RefNs     []int64
	Arrivals  int64
	Digest    string
	PeakRSSkB int64
	// Runtime deltas over the round.
	Mallocs, Bytes uint64
	GCs            uint32
}

// resetPeakRSS returns the heap's free memory to the OS and restarts
// the kernel's count of the peak resident set (VmHWM) from the resident
// set left, so that a round's peak is its own, not that of the warm-up,
// the set-ups or an earlier round.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("vodbench: reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the peak resident set (VmHWM), in KiB.
func peakRSS() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("vodbench: peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("vodbench: no VmHWM in /proc/self/status")
}

// tracedReport is the traced child's one round.
type tracedReport struct {
	Arrivals int64
	Digest   string
	Kinds    []kindSummary
	Metrics  map[string]float64
}

// kindSummary is the aggregate of one kind of event-level span: Count
// spans, Timed of them timed; TotalNs is estimated from the timed ones.
type kindSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Timed   uint64  `json:"timed"`
	TotalNs int64   `json:"total_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

type childReport struct {
	Rounds []round            `json:",omitempty"`
	Setups [][numStages]int64 `json:",omitempty"` // stage durations of each set-up, ns
	// SetupRefNs[i] is the mean of the reference kernel's times before
	// and after the batch of set-up i.
	SetupRefNs []int64       `json:",omitempty"`
	Traced     *tracedReport `json:",omitempty"`
	Spans      []span
}

// span is one timed interval: a set-up and its stages, a warm-up, a
// round and its parts, or a traced job with its stages and event loop.
// IDs are unique within a run; Parent is the enclosing span's ID, 0 for
// none.
type span struct {
	Run    string `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

type spanLog []span

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := len(*l) + 1
	*l = append(*l, span{ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

func (l *spanLog) addStages(parent int, marks *[numStages + 1]time.Time) {
	for i, name := range stageNames {
		l.add(name, parent, marks[i], marks[i+1])
	}
}

// childProcs is the benchmark's thread budget: at most two.
func childProcs() int { return min(2, runtime.GOMAXPROCS(0)) }

// child is the state one child process measures with.
type child struct {
	w        workload
	seed     uint64
	arrivals int64 // requests one round offers
	ref      *reference
	rep      childReport
	log      spanLog
}

// newChild counts the requests a round of w offers and runs the
// warm-up: an untraced round at warmupScale and, for the traced child,
// a traced one too.
func newChild(w workload, seed uint64, traced bool) (*child, error) {
	ref, err := newReference(w.workers())
	if err != nil {
		return nil, err
	}
	c := &child{w: w, seed: seed, ref: ref}
	for k := range w.parts {
		n, err := countArrivals(w.jobs(seed, k, scale))
		if err != nil {
			return nil, err
		}
		c.arrivals += n
	}
	start := time.Now()
	for k := range w.parts {
		c.ref.time(w.workers())
		if _, err := w.runPart(seed, k, scale*warmupScale); err != nil {
			return nil, err
		}
		if traced {
			if _, err := runTraced(w.jobs(seed, k, scale*warmupScale), w.workers(), k); err != nil {
				return nil, err
			}
		}
	}
	c.log.add("warmup", 0, start, time.Now())
	return c, nil
}

// setups times setupReps cold set-ups of the workload's first scenario,
// with the reference kernel, on one thread as a set-up runs, before and
// after them.
func (c *child) setups() error {
	first := c.w.jobs(c.seed, 0, scale)[0]
	before := c.ref.time(1)
	for range setupReps {
		// Collect first so every set-up starts from the same heap state:
		// a set-up allocates, and a collection it triggers partway would
		// be timed with it.
		runtime.GC()
		j, err := prepare(first, new(core.Engine), nil)
		if err != nil {
			return err
		}
		var st [numStages]int64
		for i := range st {
			st[i] = int64(j.marks[i+1].Sub(j.marks[i]))
		}
		c.rep.Setups = append(c.rep.Setups, st)
		c.log.addStages(c.log.add("setup", 0, j.marks[0], j.marks[numStages]), &j.marks)
	}
	ref := (before + c.ref.time(1)) / 2
	for range setupReps {
		c.rep.SetupRefNs = append(c.rep.SetupRefNs, ref)
	}
	return nil
}

// round runs every part through the program's entry point, with the
// reference kernel before each part and after the last, and records
// each part's wall time, the kernel's times, the output digest, the
// peak resident set and the runtime counters.
func (c *child) round() error {
	w := c.w
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd := round{Arrivals: c.arrivals}
	digests := make([]string, w.parts)
	starts := make([]time.Time, w.parts)
	ends := make([]time.Time, w.parts)
	for k := range w.parts {
		rd.RefNs = append(rd.RefNs, c.ref.time(w.workers()))
		starts[k] = time.Now()
		d, err := w.runPart(c.seed, k, scale)
		ends[k] = time.Now()
		if err != nil {
			return err
		}
		digests[k] = d
		rd.PartNs = append(rd.PartNs, int64(ends[k].Sub(starts[k])))
	}
	rd.RefNs = append(rd.RefNs, c.ref.time(w.workers()))
	runtime.ReadMemStats(&after)
	rd.Mallocs = after.Mallocs - before.Mallocs
	rd.Bytes = after.TotalAlloc - before.TotalAlloc
	rd.GCs = after.NumGC - before.NumGC
	var err error
	if rd.PeakRSSkB, err = peakRSS(); err != nil {
		return err
	}
	rd.PeakRSSkB -= refResidentKiB * int64(w.workers())
	if rd.Digest, err = digest(digests); err != nil {
		return err
	}
	c.rep.Rounds = append(c.rep.Rounds, rd)
	id := c.log.add("round", 0, starts[0], ends[w.parts-1])
	for k := range w.parts {
		c.log.add("part", id, starts[k], ends[k])
	}
	return nil
}

func (c *child) report() *childReport {
	c.rep.Spans = c.log
	return &c.rep
}

// untracedChild runs set-ups and a round, again and again until the next
// pair would overrun seconds (at least once).
func untracedChild(w workload, seed uint64, seconds float64) (*childReport, error) {
	c, err := newChild(w, seed, false)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for {
		if err := c.setups(); err != nil {
			return nil, err
		}
		if err := c.round(); err != nil {
			return nil, err
		}
		elapsed := time.Since(begin).Seconds()
		if elapsed+elapsed/float64(len(c.rep.Rounds)) > seconds {
			break
		}
	}
	return c.report(), nil
}

// tracedChild times one batch of set-ups and one untraced round, for the
// set-up stages and the runtime counters, then runs one round through
// the staged pipeline with every job traced, each paired with untraced
// runs (runTraced), and reduces the tracers to the per-layer metrics.
func tracedChild(w workload, seed uint64) (*childReport, error) {
	c, err := newChild(w, seed, true)
	if err != nil {
		return nil, err
	}
	if err := c.setups(); err != nil {
		return nil, err
	}
	if err := c.round(); err != nil {
		return nil, err
	}
	if c.rep.Traced, err = c.tracedRound(); err != nil {
		return nil, err
	}
	return c.report(), nil
}

func (c *child) tracedRound() (*tracedReport, error) {
	w := c.w
	var tr tracer
	var arrivals, migrations, edgeHits, batched int64
	var wall, jobTotal, cellTotal, setupTotal time.Duration
	var jobMs, inflation []float64
	digests := make([]string, w.parts)
	for k := range w.parts {
		start := time.Now()
		recs, err := runTraced(w.jobs(c.seed, k, scale), w.workers(), k)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		wall += end.Sub(start)
		partID := c.log.add("traced-part", 0, start, end)
		results := make([]*semicont.Result, len(recs))
		for i, r := range recs {
			results[i] = r.res
			tr.merge(&r.tr)
			arrivals += r.res.Arrivals
			migrations += r.res.Migrations
			edgeHits += r.res.EdgeHits
			batched += r.res.BatchedJoins
			d := r.end.Sub(r.start)
			jobTotal += d
			inflation = append(inflation, float64(d)/float64(r.untraced))
			cellTotal += r.cell
			jobMs = append(jobMs, float64(d)/1e6)
			setupTotal += r.marks[numStages].Sub(r.marks[0])
			id := c.log.add("job", partID, r.start, r.end)
			c.log.addStages(id, &r.marks)
			c.log.add("core.events", id, r.marks[numStages], r.end)
		}
		if digests[k], err = w.assemble(k, results); err != nil {
			return nil, err
		}
	}
	if arrivals == 0 {
		return nil, fmt.Errorf("vodbench: %s offered no requests", w.name)
	}
	d, err := digest(digests)
	if err != nil {
		return nil, err
	}

	k := &tr.kinds
	per := func(n int64) float64 { return float64(n) / float64(arrivals) }
	share := func(kind int) float64 { return float64(k[kind].total()) / float64(tr.loop) }
	m := map[string]float64{
		"core.events":             float64(tr.steps),
		"core.events_per_req":     per(tr.steps),
		"core.migrations_per_req": per(migrations),
		"core.wake_share":         share(kindWake),
		"core.fault_share":        share(kindFault),
		"audit.share":             share(kindAudit),
		"audit.ns_per_event":      float64(k[kindAudit].total()) / float64(tr.steps),
		"edge.hit_ratio":          per(edgeHits),
		"edge.batched_ratio":      per(batched),
		"sweep.runs":              float64(len(jobMs)),
		"sweep.job_ms.n":          float64(len(jobMs)),
		"sweep.job_ms.p50":        median(jobMs),
		"sweep.job_ms.p95":        nearestRank(jobMs, 0.95),
		"sweep.efficiency":        float64(cellTotal) / (float64(wall) * float64(w.workers())),
		"sweep.setup_share":       float64(setupTotal) / float64(jobTotal),
		"workload.next_ns.n":      float64(k[kindNext].sk.N()),
		"trace.overhead":          median(inflation) - 1,
	}
	if n := k[kindNext].sk.N(); n > 0 {
		m["workload.next_ns"] = float64(k[kindNext].sum) / float64(n)
	}
	for _, d := range []struct {
		name string
		kind int
	}{{"core.wake_ns", kindWake}, {"core.arrival_ns", kindArrival}, {"core.admit_ns", kindAdmit}, {"core.fault_ns", kindFault}} {
		sk := &k[d.kind].sk
		m[d.name+".p50"] = sk.Quantile(0.5)
		m[d.name+".p99"] = tail(sk, 0.99)
		m[d.name+".n"] = float64(sk.N())
	}
	rep := &tracedReport{Arrivals: arrivals, Digest: d, Metrics: m}
	for i := range k {
		rep.Kinds = append(rep.Kinds, kindSummary{
			Name:    kindNames[i],
			Count:   k[i].n,
			Timed:   k[i].sk.N(),
			TotalNs: int64(k[i].total()),
			P50Ns:   k[i].sk.Quantile(0.5),
			P99Ns:   tail(&k[i].sk, 0.99),
		})
	}
	return rep, nil
}

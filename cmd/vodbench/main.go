package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// baseline.json records the output digests of seeds 1 to 20 checked on
// every run, the baseline numbers measured on one host with its
// fingerprint, and the layer → end-to-end mapping of doc.go.
//
//go:embed baseline.json
var baselineJSON []byte

// childTimeout bounds one child process; a full-size child takes
// seconds.
const childTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var bl struct {
		Digests map[string]map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(baselineJSON, &bl); err != nil {
		fmt.Fprintln(stderr, "vodbench: baseline.json:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "vodbench:", err)
		return 2
	}
	b := &bench{exe: exe, digests: bl.Digests, stdout: stdout, stderr: stderr}
	return b.main(args)
}

// bench is one invocation. Its children are exe run with -child.
type bench struct {
	exe string
	// digests[workload][seed] is the recorded output digest of a round.
	digests        map[string]map[string]string
	stdout, stderr io.Writer
}

// main measures each selected workload in turn the same way: an
// untraced child that runs rounds for -seconds gives the end-to-end
// metrics, and a traced child the per-layer ones. With -workload all it
// runs both for every workload and prints every metric; with one
// workload it runs the untraced child at -trace 0 and the traced one at
// -trace 1, and ends with the one-line JSON result.
func (b *bench) main(args []string) int {
	fs := flag.NewFlagSet("vodbench", flag.ContinueOnError)
	fs.SetOutput(b.stderr)
	name := fs.String("workload", "all", "workload to run (p4-large, edge-skew, scale-faulttol, f7-sweep), or all")
	seed := fs.Uint64("seed", 1, "seed every workload input is derived from")
	seconds := fs.Float64("seconds", 30, "measuring budget of each workload's untraced child; rounds stop before overrunning it")
	traceMode := fs.Int("trace", 0, "single workload: 1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write spans and per-kind event aggregates to this JSON file at exit")
	role := fs.String("child", "", "internal: measure as an untraced or traced child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, found := findWorkload(*name)
	switch {
	case fs.NArg() > 0:
		return b.usage("unexpected arguments %q", fs.Args())
	case !found && (*name != "all" || *role != ""):
		return b.usage("unknown workload %q", *name)
	case *traceMode != 0 && *traceMode != 1:
		return b.usage("-trace must be 0 or 1, got %d", *traceMode)
	case !(*seconds >= 0):
		return b.usage("-seconds must not be negative, got %g", *seconds)
	}
	if *role != "" {
		return b.child(*role, w, *seed, *seconds)
	}

	selected, untraced, traced := workloads, true, true
	if found {
		selected, untraced, traced = []workload{w}, *traceMode == 0, *traceMode == 1
	}
	ctx := context.Background()
	var outs []*outcome
	for _, w := range selected {
		o := &outcome{w: w}
		if untraced {
			b.spawn(ctx, o, "untraced", *seed, *seconds)
		}
		if traced {
			b.spawn(ctx, o, "traced", *seed, 0)
		}
		outs = append(outs, o)
	}

	h := fingerprint()
	fmt.Fprintf(b.stdout, "vodbench seed=%d seconds=%g gomaxprocs=%d threads=%d cpu=%q %s %s/%s\n",
		*seed, *seconds, h.GOMAXPROCS, h.HardwareThreads, h.CPU, h.Go, h.GOOS, h.GOARCH)
	code := 0
	for _, o := range outs {
		o.check(b.digests[o.w.name][strconv.FormatUint(*seed, 10)])
		for _, p := range o.problems {
			fmt.Fprintf(b.stderr, "vodbench: %s: FAIL: %s\n", o.w.name, p)
		}
		if o.failed > 0 || o.attempted == 0 {
			code = 1
		}
		o.print(b.stdout)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, h, *seed, outs); err != nil {
			fmt.Fprintln(b.stderr, "vodbench:", err)
			code = 1
		}
	}
	if found {
		list := endToEnd
		if *traceMode == 1 {
			list = perLayer
		}
		if err := outs[0].writeResult(b.stdout, list); err != nil {
			fmt.Fprintln(b.stderr, "vodbench:", err)
			return 1
		}
	}
	return code
}

func (b *bench) usage(format string, args ...any) int {
	fmt.Fprintf(b.stderr, "vodbench: "+format+"\n", args...)
	return 2
}

// child measures as one child process and prints its report.
func (b *bench) child(role string, w workload, seed uint64, seconds float64) int {
	// One P for a single run: with two, its goroutine hops between them
	// and misses semicont.Run's per-P engine pool now and then (doc.go).
	runtime.GOMAXPROCS(min(childProcs(), w.workers()))
	var rep *childReport
	var err error
	switch role {
	case "untraced":
		rep, err = untracedChild(w, seed, seconds)
	case "traced":
		rep, err = tracedChild(w, seed)
	default:
		err = fmt.Errorf("unknown child role %q", role)
	}
	if err == nil {
		err = json.NewEncoder(b.stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintf(b.stderr, "vodbench: %s %s child: %v\n", w.name, role, err)
		return 1
	}
	return 0
}

// outcome collects everything measured for one workload.
type outcome struct {
	w         workload
	untraced  *childReport
	traced    *childReport
	spans     []span
	digest    string
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// spawn runs one child and files its report under o. A child that
// fails counts as one failed run.
func (b *bench) spawn(ctx context.Context, o *outcome, role string, seed uint64, seconds float64) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "-child", role, "-workload", o.w.name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, b.stderr
	var rep childReport
	err := cmd.Run()
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &rep)
	}
	if err != nil {
		o.attempted++
		o.fail("%s child: %v", role, err)
		return
	}
	if role == "traced" {
		o.traced = &rep
	} else {
		o.untraced = &rep
	}
	for _, s := range rep.Spans {
		s.Run = o.w.name + "/" + role
		o.spans = append(o.spans, s)
	}
}

// check counts the runs and fails each whose output differs from the
// reference: the recorded digest when one applies, else the first
// round's. The traced run must also have offered exactly the requests
// the untraced rounds did.
func (o *outcome) check(recorded string) {
	want := recorded
	var arrivals int64
	for _, c := range []*childReport{o.untraced, o.traced} {
		if c == nil {
			continue
		}
		for _, r := range c.Rounds {
			o.attempted++
			arrivals = r.Arrivals
			if want == "" {
				want = r.Digest
			}
			if r.Digest != want {
				o.fail("untraced round output digest %s, want %s", r.Digest, want)
			}
		}
	}
	if o.traced != nil {
		t := o.traced.Traced
		o.attempted++
		switch {
		case t.Digest != want:
			o.fail("traced output digest %s, want %s", t.Digest, want)
		case t.Arrivals != arrivals:
			o.fail("traced run offered %d requests, untraced %d", t.Arrivals, arrivals)
		}
	}
	o.digest = want
}

// metrics reduces the untraced child's report to the end-to-end metrics
// and the traced child's to the per-layer ones.
func (o *outcome) metrics() map[string]float64 {
	m := map[string]float64{}
	if o.attempted > 0 {
		m["failed_ratio"] = float64(o.failed) / float64(o.attempted)
	}
	if c := o.untraced; c != nil {
		arrivals := float64(c.Rounds[0].Arrivals)
		m["req_per_s"] = arrivals / roundTime(c.Rounds, true)
		m["req_per_s.raw"] = arrivals / roundTime(c.Rounds, false)
		m["req_per_s.n"] = float64(len(c.Rounds))
		var ref []float64
		for _, r := range c.Rounds {
			for _, ns := range r.RefNs {
				ref = append(ref, float64(ns)/1e6)
			}
		}
		m["host.ref_ms"] = median(ref)
		var rss []float64
		for _, r := range c.Rounds {
			rss = append(rss, float64(r.PeakRSSkB)/1024)
		}
		m["peak_rss_mb"] = median(rss)
		m["setup_s"] = setupTime(c, true)
		m["setup_s.raw"] = setupTime(c, false)
		m["setup_s.n"] = float64(len(c.Setups))
	}
	if c := o.traced; c != nil {
		rd := c.Rounds[0]
		arrivals := float64(rd.Arrivals)
		m["runtime.allocs_per_req"] = float64(rd.Mallocs) / arrivals
		m["runtime.bytes_per_req"] = float64(rd.Bytes) / arrivals
		m["runtime.gc_cycles"] = float64(rd.GCs)
		for i, name := range stageNames {
			var us []float64
			for _, st := range c.Setups {
				us = append(us, float64(st[i])/1e3)
			}
			m[name+"_us"] = median(us)
		}
		for k, v := range c.Traced.Metrics {
			m[k] = v
		}
	}
	return m
}

// roundTime is the host time, in seconds, a round takes: the sum over
// parts of each part's median over rounds. With atRef, each part's time
// in a round is first scaled to the reference host speed: multiplied by
// refNominalNs over the mean of the reference kernel's times right
// before and right after it (reference.go).
func roundTime(rounds []round, atRef bool) float64 {
	var total float64
	for k := range rounds[0].PartNs {
		var ts []float64
		for _, r := range rounds {
			t := float64(r.PartNs[k]) / 1e9
			if atRef {
				t *= refNominalNs / (float64(r.RefNs[k]+r.RefNs[k+1]) / 2)
			}
			ts = append(ts, t)
		}
		total += median(ts)
	}
	return total
}

// setupTime is the time, in seconds, of one cold set-up: the median of
// the child's set-ups. With atRef, each set-up is first scaled to the
// reference host speed by the kernel's times around its batch, as in
// roundTime.
func setupTime(c *childReport, atRef bool) float64 {
	var s []float64
	for i, st := range c.Setups {
		var total int64
		for _, d := range st {
			total += d
		}
		t := float64(total) / 1e9
		if atRef {
			t *= refNominalNs / float64(c.SetupRefNs[i])
		}
		s = append(s, t)
	}
	return median(s)
}

// print writes every measured metric by name with its unit.
func (o *outcome) print(w io.Writer) {
	m := o.metrics()
	fmt.Fprintf(w, "%s: attempted=%d failed=%d digest=%s\n", o.w.name, o.attempted, o.failed, o.digest)
	for _, list := range [][]metric{endToEnd, perLayer, extras} {
		for _, mt := range list {
			if v, ok := m[mt.name]; ok {
				fmt.Fprintf(w, "  %-26s %14.6g %s\n", mt.name, v, mt.unit)
			}
		}
	}
}

// writeResult prints the one-line JSON result for a single workload:
// exactly the metrics in list, each 0 when it could not be measured.
func (o *outcome) writeResult(w io.Writer, list []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := o.metrics()
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	for _, mt := range list {
		v := m[mt.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[mt.name] = value{v, mt.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// host is the fingerprint every recorded number carries.
type host struct {
	GOMAXPROCS      int    `json:"gomaxprocs"`
	HardwareThreads int    `json:"hardware_threads"`
	CPU             string `json:"cpu"`
	Go              string `json:"go"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
}

func fingerprint() host {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{childProcs(), runtime.NumCPU(), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// writeTrace writes every child's spans and the traced runs' per-kind
// event aggregates to path. It runs once, at exit.
func writeTrace(path string, h host, seed uint64, outs []*outcome) error {
	type eventAgg struct {
		Workload string `json:"workload"`
		kindSummary
	}
	doc := struct {
		Host   host       `json:"host"`
		Seed   uint64     `json:"seed"`
		Spans  []span     `json:"spans"`
		Events []eventAgg `json:"events"`
	}{Host: h, Seed: seed, Spans: []span{}, Events: []eventAgg{}}
	for _, o := range outs {
		doc.Spans = append(doc.Spans, o.spans...)
		if o.traced != nil {
			for _, k := range o.traced.Traced.Kinds {
				doc.Events = append(doc.Events, eventAgg{o.w.name, k})
			}
		}
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

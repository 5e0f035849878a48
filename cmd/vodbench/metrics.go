package main

import (
	"math"
	"slices"
)

// metric names one reported number. BENCHMARK.json at the repository
// root lists endToEnd and perLayer with the same names, units and
// directions; the tests hold the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd metrics come from the untraced rounds; they are what a user
// regenerating a figure or running a scale cell waits on and pays for.
var endToEnd = []metric{
	{"req_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer metrics come from the traced run, except the set-up stages
// and runtime counters, which come from the untraced child. doc.go maps
// each to the end-to-end metric and workload it should move.
var perLayer = []metric{
	{"catalog.generate_us", "us", "lower"},
	{"placement.build_us", "us", "lower"},
	{"workload.init_us", "us", "lower"},
	{"core.reset_us", "us", "lower"},
	{"core.events", "count", "lower"},
	{"core.events_per_req", "ratio", "lower"},
	{"core.migrations_per_req", "ratio", "lower"},
	{"core.wake_ns.p50", "ns", "lower"},
	{"core.wake_ns.p99", "ns", "lower"},
	{"core.wake_share", "ratio", "lower"},
	{"core.arrival_ns.p50", "ns", "lower"},
	{"core.arrival_ns.p99", "ns", "lower"},
	{"core.admit_ns.p50", "ns", "lower"},
	{"core.admit_ns.p99", "ns", "lower"},
	{"core.fault_share", "ratio", "lower"},
	{"workload.next_ns", "ns", "lower"},
	{"edge.hit_ratio", "ratio", "higher"},
	{"edge.batched_ratio", "ratio", "higher"},
	{"audit.share", "ratio", "lower"},
	{"runtime.allocs_per_req", "allocs/req", "lower"},
	{"runtime.bytes_per_req", "B/req", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"sweep.runs", "count", "higher"},
	{"sweep.job_ms.p50", "ms", "lower"},
	{"sweep.job_ms.p95", "ms", "lower"},
	{"sweep.efficiency", "ratio", "higher"},
	{"sweep.setup_share", "ratio", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// extras are printed and written to the trace file but not reported to
// BENCHMARK.json's consumers: sample counts, and times that are zero on
// every workload without faults or audits (a constant is no
// measurement there).
var extras = []metric{
	{"failed_ratio", "ratio", "lower"},
	{"req_per_s.raw", "1/s", "higher"},
	{"req_per_s.n", "count", ""},
	{"host.ref_ms", "ms", ""},
	{"setup_s.raw", "s", "lower"},
	{"setup_s.n", "count", ""},
	{"faults.compile_us", "us", "lower"},
	{"core.wake_ns.n", "count", ""},
	{"core.arrival_ns.n", "count", ""},
	{"core.admit_ns.n", "count", ""},
	{"core.fault_ns.p50", "ns", "lower"},
	{"core.fault_ns.n", "count", ""},
	{"workload.next_ns.n", "count", ""},
	{"audit.ns_per_event", "ns", "lower"},
	{"sweep.job_ms.n", "count", ""},
}

// median is the middle of xs, the mean of the middle two for an even
// count, and NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank is the q-quantile of xs by the nearest-rank rule, or the
// median when fewer than ten samples lie beyond q, on q's side of it.
func nearestRank(xs []float64, q float64) float64 {
	if float64(len(xs))*min(q, 1-q) < 10 {
		return median(xs)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

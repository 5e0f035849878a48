// Command vodbench is the simulator's end-to-end benchmark: host
// throughput on four batch workloads, with per-layer attribution from a
// separate traced run. Every number is measured from outside the layers,
// by timing calls into their public functions; nothing inside the
// program is instrumented.
//
// It is a module of its own so that building it never touches the
// repository's module. From the repository root:
//
//	bash cmd/vodbench/run.sh                       # every workload and metric
//	bash cmd/vodbench/run.sh -workload p4-large -seed 2 -seconds 30 -trace 1
//	cd cmd/vodbench && go run . -trace-out spans.json
//	cd cmd/vodbench && go test ./...               # a few seconds
//
// run.sh builds the binary and keeps the Go build cache under
// .bench_build/ of the checkout.
//
// # Children
//
// Every workload is measured the same way, by two child processes of
// the binary. The untraced child gives the end-to-end metrics: it runs a
// warm-up round at a tenth of the size, then, until the next round would
// overrun -seconds, times 31 cold set-ups and a round. The traced child
// gives the per-layer metrics: after the same warm-up (traced as well),
// it times 31 set-ups and one untraced round, then a traced round that
// runs every job twice traced and twice untraced (see trace.overhead)
// and keeps its faster traced run.
// Without -workload, or with -workload all, the command runs both
// children for every workload in turn and prints every metric by name
// with its unit. With one workload it runs the untraced child at
// -trace 0 and the traced child at -trace 1, and ends its output with
// one JSON line: {"correct", "attempted", "failed", "metrics"}. It exits
// non-zero when any run fails. -seed derives every Scenario.Seed and
// Options.Seed.
//
// A child of a single-run workload runs with GOMAXPROCS 1, the sweep's
// with 2. A single run is one goroutine; given a second P it hops between
// the two, and semicont.Run's sync.Pool of engines, which is per P, then
// misses now and then and holds two engines at once: that moved
// scale-faulttol's peak RSS by a third from run to run. Every set-up
// starts from a collected heap, so no collection it triggers is timed
// with it.
//
// # Workloads
//
// Each is a batch job of fixed size; there is no request loop on the
// host. A round is a workload's parts, each timed on its own. Parts are
// short, a few tenths of a second to a second, because the host's
// speed is not: other tenants' memory traffic slows this memory-bound
// simulator by up to 2×, in phases from milliseconds to minutes long,
// and the reference kernel run between parts follows a short part's
// conditions more closely (see req_per_s). A single-run workload's parts
// are independent runs on their own seed streams, as one catalog draw
// can halve or double the cost per request (which titles an edge prefix
// covers whole, say), so a round averages many.
//
//   - p4-large: LargeSystem, PolicyP4, θ 0.271, load 1.0, 12 parts of
//     25 simulated hours (≈400k requests, ≈1.4M events). The paper's
//     headline policy at about 100 streams per server. Wake steps take
//     about 60% of its event-loop time and arrivals the rest, so the
//     data plane (allocator, lane, wake index) and the DRM controller do
//     the work; edge, faults, audit and sweep do none.
//   - edge-skew: SmallSystem, 20% staging plus DRM, 2 edge nodes with
//     96000 Mb LRU prefix caches, 900 s prefixes, batch-prefix with a
//     300 s window, θ −0.5, load 2.0, 40 parts of 62.5 h (≈2.5M
//     requests, ≈5.8M events). About 92% of arrivals hit the edge and
//     about 40% batch; cluster utilization is about 0.3. The arrival,
//     edge-probe and batch-join path dominates and the allocator is
//     nearly idle: the control on which data-plane changes should not
//     move.
//   - scale-faulttol: the 200-server cell of scale_test.go — EFTF
//     staging, DRM with unlimited hops, retry queue, degraded playback,
//     faults at MTBF 8 h and MTTR 0.5 h, load 0.9, sketches on, audit
//     sampled every 512th event — 5 parts of 1 h (≈270k requests).
//     With 10–30 minute clips a part spends its first half hour filling
//     the cluster, so it costs less per request than a long run. The
//     only workload with failures, retries, parks, sketches and audit
//     taps (the auditor takes about a fifth of its event loop), and
//     with the largest event heap and holder scans: the cell where
//     memory matters. Shards stays at the program default.
//   - f7-sweep: experiments.Fig7(SmallSystem, 10 h, 5 trials) on a
//     two-worker sweep.Pool, 8 policies × 11 θ × 5 trials = 440 short
//     runs (≈2.2M requests): how a user regenerates a figure. Its 11
//     parts are the θ columns, each one Fig7 call with Options.Thetas
//     set to that θ and the same seed, so together they run exactly the
//     jobs of one Fig7 call over every θ (each column ends with one
//     worker idle for part of a job, a few per cent of the round). It
//     alone exercises the sweep pool and per-run set-up at volume
//     (though set-up measures under 1% of its job time), half its cells
//     (P1, P3, P5, P7) run without workahead, and placement is
//     predictive in half.
//
// # End-to-end metrics
//
// They come from the untraced child's rounds, which call the real entry
// points (semicont.Run per part, or experiments.Fig7), and its set-ups.
// Both times are given at a fixed host speed. A reference kernel
// (reference.go), a small event loop of fixed size, runs before each
// part and after the last, on as many threads as the workload's pool,
// and before and after each batch of set-ups, on one. A time is scaled
// by refNominalNs (15 ms) over the mean of the kernel's two times around
// it: a phase of host contention slows the kernel and the program alike
// and cancels, while a change to the program moves only the program.
// The unscaled figures (req_per_s.raw, setup_s.raw) and the kernel's
// median time (host.ref_ms) are printed beside them, so the host's speed
// during a run can be read off.
//
//   - req_per_s: simulated arrivals per host second: arrivals over the
//     sum over parts of each part's median scaled time over rounds.
//   - peak_rss_mb: the median over rounds of a round's peak resident
//     set (VmHWM), less the reference kernel's memory (4.1 MiB per
//     thread, mapped outside the Go heap so that it does not move the
//     collector's pacing). Before each round the child returns the
//     heap's free memory to the OS and resets the OS's peak count, so a
//     round's peak is its own. The child's lifetime peak was a poor
//     measure: it is the worst round, and how far a round's heap
//     overshoots depends on where the collector happens to run while a
//     fresh engine grows.
//   - setup_s: the median of the scaled cold set-ups of the workload's
//     first scenario (31 before each round, on a collected heap):
//     catalog → placement → calibration and generator → a fresh
//     Engine.Reset → fault schedule. In two sets of ten seeds per
//     workload the scaled median spread 5–22% between runs (most on
//     scale-faulttol, whose set-up builds a 200-server engine), the
//     unscaled one 12–42%.
//
// Why scale: the host's speed drifts by up to 2× in phases that can
// outlast a run, and no statistic over a run's own samples — per-part
// medians, fastest rounds, low percentiles — can tell such a phase from
// a slower program. reference.go gives the spreads with and without.
//
// Failures are counted against attempted runs (each round and the
// traced run). A run fails if it returns an error, if its output digest
// — SHA-256 of its Result JSON plus sketch summaries, or of Fig7's
// series — differs from the recorded digest for its seed (baseline.json
// records seeds 1 to 20) or, without one, from the first round's, or if
// the traced run's output or offered request count differs from the
// untraced one's. For f7-sweep the traced output is rebuilt from its
// 440 jobs, so it matches only when the job grid reproduces Fig7's
// points exactly.
//
// # Tracing
//
// The traced child rebuilds each run stage by stage from the layers'
// public functions — catalog.Generate, placement.Build, workload.New,
// core.Engine.Reset, faults.Compile — and drives Engine.Start and a Step
// loop on a sweep.Grid of the workload's pool size. Every step is
// classified by the Engine.Metrics counter it moved: Arrivals makes an
// arrival step; Failures, Recoveries, Brownouts or BrownoutRestores a
// fault step; anything else a wake step, which also covers the retry,
// park and pause ticks that move no counter. One step in sixteen, chosen
// at random, is timed by a clock read on each side. Its self time is
// its wall time less the time spent in workload.Next, timed by a
// wrapper around the arrival source, and in the auditor. An observer's
// OnAdmit/OnReject clock read splits an arrival step into the
// controller's part (core.admit_ns: edge probe, selector and DRM up to
// the decision) and the allocation after it; full edge serves and
// batched joins call neither and are not in core.admit_ns. On the
// audited workload a delegating wrapper around audit.New times every
// tap. Counts are exact; a kind's total time, and so every share, is
// its timed mean times its count. Event-level spans are aggregated in
// memory per kind into stats.Sketch histograms; set-ups, rounds, parts
// and jobs are kept as spans. -trace-out writes them at exit, so
// tracing costs the untraced rounds nothing.
//
// Why sample: a clock read costs about 45 ns on the two-thread Xeon VM
// of baseline.json, a fifth of an edge-skew wake step. Timing every
// step inflated edge-skew by a third, one step in eight by 5–12%. At
// one in sixteen, trace.overhead read −11% to +9% over seeds 1 to 3 of
// every workload: 6–9% on edge-skew, whose steps are cheapest, and
// below zero only on scale-faulttol, whose five jobs give few pairs
// against the host's noise.
//
// trace.overhead reports the inflation: the median over jobs of a
// job's faster traced run over its faster run through semicont.Run,
// minus one. Each job runs twice each way, untraced, traced, traced,
// untraced or the mirror order, so both see the same host conditions.
// Measuring it any more loosely read mostly noise: a traced round
// against the untraced rounds of another process read anywhere from
// −20% to +22%, and a single traced run against the untraced run right
// before or after it from −10% to +40%. A job whose traced and
// untraced results differ fails. The per-layer times come from each
// job's faster traced run too.
//
// The tracer never attaches an AuditTap to a run that has none: in a
// prototype, attaching one made the allocator build spare-grant records
// and slowed p4-large by 150–200%. The clock is time.Since on a fixed
// monotonic reading: one clock read, where time.Now costs two.
//
// A timing distribution reports its median, a tail percentile only when
// at least ten samples lie beyond it (else the median again), and its
// sample count (the .n metrics).
//
// # Per-layer metrics and what they should move
//
//   - catalog.generate_us, placement.build_us, workload.init_us,
//     core.reset_us (and faults.compile_us, printed only, as it is
//     empty on three workloads): the medians of the set-up stages over
//     the traced child's 31 set-ups. They move setup_s on every
//     workload and req_per_s on f7-sweep (440 set-ups per round);
//     predicted negligible for req_per_s elsewhere.
//   - core.events, core.events_per_req, core.migrations_per_req: exact
//     counts. They move req_per_s on every workload; an event-fusing
//     change lowers core.events_per_req.
//   - core.wake_ns.p50/.p99, core.wake_share: req_per_s on p4-large and
//     f7-sweep; predicted no change on edge-skew.
//   - core.arrival_ns.p50/.p99, core.admit_ns.p50/.p99: req_per_s on
//     p4-large (through DRM) and edge-skew (edge probe, batch join).
//   - core.fault_share (and core.fault_ns.p50, printed only):
//     req_per_s on scale-faulttol only.
//   - workload.next_ns, the mean time per workload.Next call with its
//     clock reads: req_per_s on edge-skew, the workload with the most
//     arrivals per event.
//   - edge.hit_ratio, edge.batched_ratio: exact model outputs that must
//     not move in a performance change; they explain req_per_s on
//     edge-skew.
//   - audit.share (and audit.ns_per_event, printed only): req_per_s on
//     scale-faulttol only. It counts the auditor's own checks, not the
//     engine's building of the records it is handed.
//   - runtime.allocs_per_req, runtime.bytes_per_req,
//     runtime.gc_cycles: runtime.MemStats deltas over the traced
//     child's untraced round. peak_rss_mb on scale-faulttol, req_per_s
//     everywhere.
//   - sweep.runs, sweep.job_ms.p50/.p95 (each job's faster traced
//     run), sweep.efficiency (Σ grid-cell time, every run of a job
//     together, / (wall × workers)), sweep.setup_share (Σ job set-up /
//     Σ job time): req_per_s on f7-sweep only. On the single-run
//     workloads every part is one job on a one-worker pool.
//   - trace.overhead: how far the per-layer times are inflated.
//
// # Comparing two commits
//
// Build both binaries first (run.sh in each checkout, or go build in
// each cmd/vodbench), then run them alternately at the same -seconds,
// switching which goes first, for at least ten pairs and with a seed
// not used while the change was written. Claim a gain only when the
// change wins at least nine pairs in ten and the medians differ by more
// than the parent's own quartile spread. The host is noisy: a run can
// read up to 2× slow for minutes at a time, so single runs prove
// nothing.
package main

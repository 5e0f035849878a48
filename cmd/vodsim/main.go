// Command vodsim runs a single cluster-VoD simulation with every model
// knob exposed as a flag and prints the resulting metrics. It is the
// interactive companion to cmd/paperfigs: use it to poke at one
// configuration, trace its events, or test a failure scenario.
//
// Examples:
//
//	vodsim -system small -policy P4 -theta 0.271 -hours 100
//	vodsim -system large -placement even -migration -staging 0.2 -theta -1
//	vodsim -system small -policy P3 -fail-at 50 -fail-server 2
//	vodsim -system small -policy P4 -trace events.csv -hours 2
//	vodsim -system small -policy P4 -admission first-fit
//	vodsim -system small -staging 0.2 -edge-nodes 2 -prefix-sec 900 -edge-cache-mb 96000 -batch-policy batch-prefix -batch-window 300
//	vodsim -system small -policy P4 -trials 5 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"semicont"
	"semicont/internal/faults"
	"semicont/internal/sweep"
	"semicont/internal/trace"
	"semicont/internal/workload"
)

func main() {
	var (
		system    = flag.String("system", "small", `system: "small", "large", "scale:<n>" (n servers at 300 Mb/s), or "svbr:<k>" for a single server`)
		policy    = flag.String("policy", "", "paper policy P1..P8 (overrides the individual knobs)")
		placement = flag.String("placement", "even", "placement: even, predictive, partial")
		migration = flag.Bool("migration", false, "enable dynamic request migration")
		maxHops   = flag.Int("max-hops", 1, "lifetime migrations per request (-1 = unlimited)")
		maxChain  = flag.Int("max-chain", 1, "migrations per arrival (chain length)")
		switchDel = flag.Float64("switch-delay", 0, "seconds of blackout per migration")
		staging   = flag.Float64("staging", 0, "client buffer as fraction of average object size")
		spare     = flag.String("spare", "eftf", "workahead discipline: eftf, lftf, even-split")
		admission = flag.String("admission", "", "admission server selector by name (see -list-admissions; empty = least-loaded)")
		listAdm   = flag.Bool("list-admissions", false, "list registered admission selectors and exit")
		intermit  = flag.Bool("intermittent", false, "intermittent scheduling (pause full-buffer streams; risks glitches)")
		guard     = flag.Float64("resume-guard", 0, "intermittent resume guard, seconds (0 = 30s default)")
		replicate = flag.Bool("replicate", false, "dynamic replication on rejection")
		copyRate  = flag.Float64("copy-rate", 0, "replication copy rate cap, Mb/s (0 = 2x view rate)")
		edgeNodes = flag.Int("edge-nodes", 0, "edge/proxy nodes holding video prefixes in front of the cluster (0 = no edge tier)")
		prefixSec = flag.Float64("prefix-sec", 0, "edge-cached prefix length per video, seconds of playback (requires -edge-nodes)")
		edgeCache = flag.Float64("edge-cache-mb", 0, "per-node edge cache byte budget, Mb (requires -edge-nodes)")
		edgePol   = flag.String("edge-cache-policy", "", "edge prefix-cache policy by name (see -list-edge-caches; empty = static-zipf)")
		listEdge  = flag.Bool("list-edge-caches", false, "list registered edge prefix-cache policies and exit")
		batchPol  = flag.String("batch-policy", "", "multicast batching policy by name (see -list-batch-policies; empty = unicast)")
		batchWin  = flag.Float64("batch-window", 0, "batching window for -batch-policy, seconds")
		listBatch = flag.Bool("list-batch-policies", false, "list registered multicast batching policies and exit")
		pauseProb = flag.Float64("pause-prob", 0, "probability a viewer pauses once")
		pauseMin  = flag.Float64("pause-min", 60, "shortest viewer pause, seconds")
		pauseMax  = flag.Float64("pause-max", 540, "longest viewer pause, seconds")
		recvCap   = flag.Float64("recv-cap", semicont.DefaultReceiveCap, "client receive cap, Mb/s (-1 = unlimited)")
		theta     = flag.Float64("theta", 0.271, "Zipf theta (1 = uniform demand)")
		hours     = flag.Float64("hours", 100, "simulated hours of arrivals")
		load      = flag.Float64("load", 1.0, "offered load as a fraction of capacity")
		seed      = flag.Uint64("seed", 1, "random seed")
		trials    = flag.Int("trials", 1, "independent trials (seeds derived)")
		failAt    = flag.Float64("fail-at", 0, "hours after which -fail-server fails, appended to the fault trace as one fail event (0 = never)")
		failSrv   = flag.Int("fail-server", 0, "server to fail at -fail-at")
		mtbf      = flag.Float64("mtbf", 0, "per-server mean time between failures, hours (0 = no stochastic faults)")
		mttr      = flag.Float64("mttr", 0, "per-server mean time to recovery, hours (required with -mtbf)")
		coldRec   = flag.Bool("cold-recovery", false, "stochastic recoveries wipe the server's storage (rebuilt via -replicate)")
		faultTr   = flag.String("fault-trace", "", "JSON fault-trace file of scripted fail/recover/brownout events (see internal/faults)")
		brownoutF = flag.String("brownout", "", `stochastic brownouts "mtbf:mttr:frac" (hours, hours, fraction of capacity kept); with -fault-domains whole domains brown out instead of failing`)
		domainsF  = flag.String("fault-domains", "", `correlated failure domains as ';'-separated server lists, e.g. "0,1;2,3"; -mtbf/-mttr (or -brownout) then drive whole-domain churn`)
		flashF    = flag.String("flash-crowd", "", `flash crowd "at:dur:factor[:video]" (hours, hours, rate multiplier, catalog id): the video jumps to rank 1 while aggregate load multiplies`)
		diurnalF  = flag.String("diurnal", "", `diurnal arrival curve "amp[:period-hours]" (relative amplitude in [0,1); period defaults to 24h)`)
		classesF  = flag.String("classes", "", `traffic classes "name=share,name=share" (first class is premium: highest priority, never shed)`)
		shedWM    = flag.Float64("shed-watermark", 0, "load-shedding utilization watermark in (0,1] (0 = off; requires -classes)")
		retryQ    = flag.Bool("retry-queue", false, "queue rejected arrivals for bounded retry instead of dropping them")
		retryPat  = flag.Float64("retry-patience", 0, "seconds a queued client waits before reneging (0 = 300s default)")
		retryBack = flag.Float64("retry-backoff", 0, "seconds between admission retries (0 = 10s default)")
		degraded  = flag.Bool("degraded", false, "degraded-mode playback: streams parked at a failure drain their buffer and reconnect on recovery")
		traceOut  = flag.String("trace", "", "write an event trace CSV to this file (single trial only)")
		auditOn   = flag.Bool("audit", false, "attach the invariant auditor: every event is checked against the model's conservation laws; a violation aborts the run with a structured error")
		auditSamp = flag.Int("audit-sample", 0, "with -audit, snapshot-check only every k-th event (0 or 1 = every event); deterministic from the event sequence, keeps audited large runs feasible")
		statsOn   = flag.Bool("stats", false, "record per-request distributions (wait, retry sojourn, glitch, migrations, degraded park) into O(1)-memory quantile sketches and print p50/p95/p99")
		parallel  = flag.Int("parallel", 0, "max concurrent simulation jobs for -trials (0 = GOMAXPROCS); results are identical at any setting")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (see DESIGN.md for the profiling workflow)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		benchHost = flag.Bool("bench-host", false, "print the benchmark host fingerprint (GOMAXPROCS, hardware threads, go version, platform) and exit; CI records it next to every uploaded BENCH_*.json")
	)
	flag.Parse()

	if *benchHost {
		fmt.Printf("gomaxprocs=%d hardware_threads=%d go=%s platform=%s/%s\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}

	if *listAdm {
		for _, name := range semicont.SelectorNames() {
			fmt.Println(name)
		}
		return
	}
	if *listEdge {
		for _, name := range semicont.EdgeCachePolicyNames() {
			fmt.Println(name)
		}
		return
	}
	if *listBatch {
		for _, name := range semicont.BatchPolicyNames() {
			fmt.Println(name)
		}
		return
	}

	// Profiles cover everything after flag handling. Error exits go
	// through os.Exit and lose the profile — profile runs that work.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	sys, err := parseSystem(*system)
	if err != nil {
		fatal(err)
	}

	var pol semicont.Policy
	if *policy != "" {
		pol, err = parsePolicy(*policy)
		if err != nil {
			fatal(err)
		}
	} else {
		pol = semicont.Policy{
			Name:            "custom",
			Migration:       *migration,
			SwitchDelay:     *switchDel,
			StagingFrac:     *staging,
			ReceiveCap:      *recvCap,
			Intermittent:    *intermit,
			ResumeGuard:     *guard,
			Replicate:       *replicate,
			ReplicationRate: *copyRate,
			PauseProb:       *pauseProb,
		}
		if *pauseProb > 0 {
			pol.MinPauseSec, pol.MaxPauseSec = *pauseMin, *pauseMax
		}
		if *migration {
			// MaxHops/MaxChain are meaningful only with DRM; setting them
			// without -migration is a validation error rather than a
			// silent no-op, so the flag defaults must not leak through.
			pol.MaxHops, pol.MaxChain = *maxHops, *maxChain
		}
		switch *spare {
		case "eftf":
			pol.Spare = semicont.EFTFSpare
		case "lftf":
			pol.Spare = semicont.LFTFSpare
		case "even-split":
			pol.Spare = semicont.EvenSplitSpare
		default:
			fatal(fmt.Errorf("unknown spare discipline %q", *spare))
		}
		switch *placement {
		case "even":
			pol.Placement = semicont.EvenPlacement
		case "predictive":
			pol.Placement = semicont.PredictivePlacement
		case "partial":
			pol.Placement = semicont.PartialPredictivePlacement
		default:
			fatal(fmt.Errorf("unknown placement %q", *placement))
		}
	}
	if *admission != "" {
		pol.Selector = *admission
	}
	// Fault-tolerance knobs compose with both custom and paper policies.
	pol.RetryQueue = pol.RetryQueue || *retryQ
	pol.RetryPatienceSec = *retryPat
	pol.RetryBackoffSec = *retryBack
	pol.DegradedPlayback = pol.DegradedPlayback || *degraded
	if *classesF != "" {
		classes, err := parseClasses(*classesF)
		if err != nil {
			fatal(err)
		}
		pol.Classes = classes
	}
	pol.ShedWatermark = *shedWM
	// Edge-tier knobs compose with both custom and paper policies; the
	// zero defaults mean validation catches partial configurations
	// (e.g. -prefix-sec without -edge-nodes) instead of ignoring them.
	pol.EdgeNodes = *edgeNodes
	pol.EdgePrefixSec = *prefixSec
	pol.EdgeCacheMb = *edgeCache
	pol.EdgeCachePolicy = *edgePol
	pol.BatchPolicy = *batchPol
	pol.BatchWindowSec = *batchWin

	fcfg := faults.Config{MTBFHours: *mtbf, MTTRHours: *mttr, Cold: *coldRec}
	if *brownoutF != "" {
		var err error
		fcfg.BrownoutMTBFHours, fcfg.BrownoutMTTRHours, fcfg.BrownoutFraction, err = parseBrownout(*brownoutF)
		if err != nil {
			fatal(err)
		}
	}
	if *domainsF != "" {
		ds, err := parseDomains(*domainsF)
		if err != nil {
			fatal(err)
		}
		fcfg.Domains = ds
		// Domain churn takes over the per-server rate flags; a -brownout
		// spec makes the domain events brownouts instead of failures.
		fcfg.DomainMTBFHours, fcfg.MTBFHours = fcfg.MTBFHours, 0
		fcfg.DomainMTTRHours, fcfg.MTTRHours = fcfg.MTTRHours, 0
		if *brownoutF != "" {
			fcfg.DomainBrownout = true
			fcfg.DomainFraction = fcfg.BrownoutFraction
			if fcfg.DomainMTBFHours == 0 {
				fcfg.DomainMTBFHours, fcfg.DomainMTTRHours = fcfg.BrownoutMTBFHours, fcfg.BrownoutMTTRHours
			}
			fcfg.BrownoutMTBFHours, fcfg.BrownoutMTTRHours, fcfg.BrownoutFraction = 0, 0, 0
		}
	}
	if *faultTr != "" {
		data, err := os.ReadFile(*faultTr)
		if err != nil {
			fatal(err)
		}
		if fcfg.Trace, err = faults.ParseTrace(data); err != nil {
			fatal(err)
		}
	}
	if *failAt != 0 {
		fcfg.Trace = append(fcfg.Trace, faults.Event{AtHours: *failAt, Server: *failSrv, Kind: faults.KindFail})
	}

	var curve workload.Curve
	if *diurnalF != "" {
		var err error
		curve.DiurnalAmp, curve.DiurnalPeriod, err = parseDiurnal(*diurnalF)
		if err != nil {
			fatal(err)
		}
	}
	if *flashF != "" {
		var err error
		curve.FlashAt, curve.FlashDuration, curve.FlashFactor, curve.FlashVideo, err = parseFlash(*flashF)
		if err != nil {
			fatal(err)
		}
	}

	sc := semicont.Scenario{
		System:       sys,
		Policy:       pol,
		Theta:        *theta,
		HorizonHours: *hours,
		LoadFactor:   *load,
		Seed:         *seed,
		Faults:       fcfg,
		Curve:        curve,
		Audit:        *auditOn,
		AuditSample:  *auditSamp,
		Stats:        *statsOn,
	}

	if *traceOut != "" {
		if *trials != 1 {
			fatal(fmt.Errorf("-trace requires -trials 1"))
		}
		rec := &trace.Recorder{}
		sc.Observer = rec
		res, err := semicont.Run(sc)
		if err != nil {
			fatal(err)
		}
		printResult(sc, res)
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace: %d events -> %s\n", len(rec.Events), *traceOut)
		return
	}

	if *trials == 1 {
		res, err := semicont.Run(sc)
		if err != nil {
			fatal(err)
		}
		printResult(sc, res)
		return
	}

	agg, err := semicont.RunTrialsOn(sweep.New(*parallel), sc, *trials)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("system=%s policy=%s theta=%g hours=%g trials=%d\n",
		sys.Name, pol.Name, sc.Theta, sc.HorizonHours, *trials)
	fmt.Printf("utilization      %s\n", agg.Utilization.String())
	fmt.Printf("rejection ratio  %s\n", agg.Rejection.String())
	fmt.Printf("migrations       %s\n", agg.Migrations.String())
	printDist(agg.Dist)
}

func parseSystem(s string) (semicont.System, error) {
	switch s {
	case "small":
		return semicont.SmallSystem(), nil
	case "large":
		return semicont.LargeSystem(), nil
	}
	var k int
	if _, err := fmt.Sscanf(s, "svbr:%d", &k); err == nil && k > 0 {
		return semicont.SingleServer(k), nil
	}
	if _, err := fmt.Sscanf(s, "scale:%d", &k); err == nil && k > 0 {
		return semicont.ScaleSystem(k), nil
	}
	return semicont.System{}, fmt.Errorf(`unknown system %q (want "small", "large", "scale:<n>", or "svbr:<k>")`, s)
}

// parseBrownout decodes "-brownout mtbf:mttr:frac" (hours, hours,
// fraction of capacity kept during the brownout).
func parseBrownout(s string) (mtbf, mttr, frac float64, err error) {
	if _, err := fmt.Sscanf(s, "%g:%g:%g", &mtbf, &mttr, &frac); err != nil {
		return 0, 0, 0, fmt.Errorf(`bad -brownout %q (want "mtbf:mttr:frac")`, s)
	}
	return mtbf, mttr, frac, nil
}

// parseDomains decodes "-fault-domains 0,1;2,3" into server-id lists.
func parseDomains(s string) ([][]int, error) {
	var domains [][]int
	for _, part := range strings.Split(s, ";") {
		var members []int
		for _, m := range strings.Split(part, ",") {
			var id int
			if _, err := fmt.Sscanf(strings.TrimSpace(m), "%d", &id); err != nil {
				return nil, fmt.Errorf(`bad -fault-domains %q (want ';'-separated server lists like "0,1;2,3")`, s)
			}
			members = append(members, id)
		}
		domains = append(domains, members)
	}
	return domains, nil
}

// parseDiurnal decodes "-diurnal amp[:period-hours]" into curve fields
// (period in seconds; 0 keeps the 24 h default).
func parseDiurnal(s string) (amp, period float64, err error) {
	var hours float64
	if _, err := fmt.Sscanf(s, "%g:%g", &amp, &hours); err == nil {
		return amp, hours * 3600, nil
	}
	if _, err := fmt.Sscanf(s, "%g", &amp); err != nil {
		return 0, 0, fmt.Errorf(`bad -diurnal %q (want "amp" or "amp:period-hours")`, s)
	}
	return amp, 0, nil
}

// parseFlash decodes "-flash-crowd at:dur:factor[:video]" (hours,
// hours, rate multiplier, catalog id) into curve fields in seconds.
func parseFlash(s string) (at, dur, factor float64, video int, err error) {
	if _, err := fmt.Sscanf(s, "%g:%g:%g:%d", &at, &dur, &factor, &video); err != nil {
		if _, err := fmt.Sscanf(s, "%g:%g:%g", &at, &dur, &factor); err != nil {
			return 0, 0, 0, 0, fmt.Errorf(`bad -flash-crowd %q (want "at:dur:factor[:video]")`, s)
		}
	}
	return at * 3600, dur * 3600, factor, video, nil
}

// parseClasses decodes "-classes premium=1,standard=3" into traffic
// classes in declaration order (the first is the protected tier).
func parseClasses(s string) ([]semicont.TrafficClass, error) {
	var classes []semicont.TrafficClass
	for _, part := range strings.Split(s, ",") {
		name, share, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf(`bad -classes %q (want "name=share,name=share")`, s)
		}
		var w float64
		if _, err := fmt.Sscanf(share, "%g", &w); err != nil {
			return nil, fmt.Errorf("bad -classes share %q: %v", share, err)
		}
		classes = append(classes, semicont.TrafficClass{Name: name, Share: w})
	}
	return classes, nil
}

func parsePolicy(name string) (semicont.Policy, error) {
	for _, p := range semicont.PaperPolicies() {
		if p.Name == name {
			return p, nil
		}
	}
	return semicont.Policy{}, fmt.Errorf("unknown policy %q (want P1..P8)", name)
}

func printResult(sc semicont.Scenario, r *semicont.Result) {
	fmt.Printf("system=%s policy=%s theta=%g hours=%g seed=%d\n",
		sc.System.Name, sc.Policy.Name, sc.Theta, sc.HorizonHours, sc.Seed)
	if sc.Policy.Selector != "" {
		fmt.Printf("controller         admission=%s\n", sc.Policy.Selector)
	}
	fmt.Printf("arrival rate       %.4f req/s (offered load = %.0f%% of %g Mb/s)\n",
		r.ArrivalRate, 100*orOne(sc.LoadFactor), r.TotalBandwidthMbps)
	fmt.Printf("utilization        %.4f\n", r.Utilization)
	fmt.Printf("requests           %d offered, %d accepted, %d rejected (%.2f%% rejected)\n",
		r.Arrivals, r.Accepted, r.Rejected, 100*r.RejectionRatio)
	fmt.Printf("data               %.0f Mb accepted, %.0f Mb delivered, %d completions\n",
		r.AcceptedMb, r.DeliveredMb, r.Completions)
	if sc.Policy.Migration {
		fmt.Printf("migration          %d moves, %d admissions via DRM, mean chain %.2f, max chain %d\n",
			r.Migrations, r.AdmissionsViaDRM, r.MeanChainLength, r.MaxChainUsed)
	}
	if sc.Policy.StagingFrac > 0 {
		fmt.Printf("staging            %.0f Mb client buffer (%.0f%% of avg object)\n",
			r.StagingBufferMb, 100*sc.Policy.StagingFrac)
	}
	if sc.Faults.Enabled() {
		fmt.Printf("faults             %d failures, %d recoveries (%d cold): %d rescued, %d dropped\n",
			r.Failures, r.Recoveries, r.ColdRecoveries, r.RescuedStreams, r.DroppedStreams)
		if r.Brownouts > 0 {
			fmt.Printf("brownouts          %d begun, %d restored\n", r.Brownouts, r.BrownoutRestores)
		}
	}
	if len(sc.Policy.Classes) > 0 {
		if sc.Policy.ShedWatermark > 0 {
			fmt.Printf("shedding           watermark %.2f, activated %d times\n",
				sc.Policy.ShedWatermark, r.SheddingActivated)
		}
		for i, c := range sc.Policy.Classes {
			fmt.Printf("class %-12s %d offered, %d accepted, %d rejected (%d shed), %d reneged\n",
				c.Name, r.ClassArrivals[i], r.ClassAccepted[i], r.ClassRejected[i],
				r.ClassShed[i], r.ClassReneged[i])
		}
	}
	if sc.Policy.RetryQueue {
		fmt.Printf("retry queue        %d queued, %d admitted on retry, %d reneged\n",
			r.RetriesQueued, r.RetriedAdmissions, r.Reneged)
	}
	if sc.Policy.DegradedPlayback {
		fmt.Printf("degraded playback  %d parked, %d resumed, %d glitched\n",
			r.DegradedParked, r.DegradedResumed, r.DegradedGlitches)
	}
	if sc.Policy.Intermittent {
		fmt.Printf("intermittent       %d streams glitched\n", r.GlitchedStreams)
	}
	if sc.Policy.Replicate {
		fmt.Printf("replication        %d copies completed (%d started), %.0f Mb moved\n",
			r.ReplicationsCompleted, r.ReplicationsStarted, r.ReplicatedMb)
	}
	if sc.Policy.PauseProb > 0 {
		fmt.Printf("interactivity      %d viewer pauses\n", r.ViewerPauses)
	}
	if sc.Policy.BatchPolicy == semicont.BatchPolicyPatch {
		fmt.Printf("patching           %d joins, %.0f Mb delivered over shared streams\n",
			r.PatchedJoins, r.SharedMb)
	}
	if sc.Policy.EdgeNodes > 0 {
		fmt.Printf("edge               %d nodes, %d hits (%d batched joins), %.0f Mb edge-served, %.0f Mb shared, %.0f Mb cluster egress\n",
			sc.Policy.EdgeNodes, r.EdgeHits, r.BatchedJoins, r.EdgeMb, r.SharedMb, r.ClusterEgressMb)
	}
	if r.PlacementShortfall > 0 {
		fmt.Printf("placement          WARNING: %d replicas did not fit (placed %d)\n",
			r.PlacementShortfall, r.PlacedCopies)
	}
	if sc.Audit {
		if sc.AuditSample > 1 {
			fmt.Printf("audit              %d events snapshot-checked (every %dth), 0 violations\n",
				r.AuditedEvents, sc.AuditSample)
		} else {
			fmt.Printf("audit              %d events checked, 0 violations\n", r.AuditedEvents)
		}
	}
	printDist(r.Dist)
}

// printDist renders the streaming distribution sketches, one line per
// non-empty channel (nil unless the run had -stats).
func printDist(d *semicont.DistStats) {
	if d == nil {
		return
	}
	for _, c := range d.Channels() {
		if c.Sketch.N() == 0 {
			continue
		}
		q := c.Sketch.Summary()
		fmt.Printf("dist %-14s n=%d p50=%.4f p95=%.4f p99=%.4f max=%.4f\n",
			c.Name, c.Sketch.N(), q.P50, q.P95, q.P99, c.Sketch.Max())
	}
}

func orOne(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vodsim:", err)
	os.Exit(1)
}

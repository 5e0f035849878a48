package semicont

import (
	"math"
	"testing"

	"semicont/internal/faults"
	"semicont/internal/workload"
)

// FuzzScenarioValidate fuzzes the public configuration surface against
// the validation authority contract: Validate must never panic on any
// input, and a scenario that validates must build and run. The second
// half is gated behind a bounded envelope so the fuzzer cannot demand a
// multi-hour simulation — inside the envelope a clean Validate followed
// by a Run error (other than an audit violation, which would be an
// engine bug in its own right) means Validate let something through
// that the construction path rejects, i.e. a gap in the contract.
func FuzzScenarioValidate(f *testing.F) {
	f.Add(5, 100.0, 50, 600.0, 1800.0, 2.2, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, 0.0, 0, uint64(1),
		0.0, 0.0, false, false, false, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	f.Add(2, 30.0, 25, 300.0, 900.0, 2.0, 3.0,
		0.0, 0.0, 0, false, 0, 0, true, false, 0.0, 0.2, 30.0, 120.0, -1.0, 1.2, 0.5, 1, uint64(7),
		0.02, 0.01, true, true, true, "least-loaded", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	f.Add(3, 45.0, 25, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 2, true, -1, 1, false, true, 0.0, 0.0, 30.0, 120.0, 1.0, 1.0, 0.0, 0, uint64(9),
		0.05, 0.02, false, true, false, "most-headroom", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	f.Add(4, 60.0, 30, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 0, false, 0, 0, false, false, 300.0, 0.0, 30.0, 120.0, -1.5, 1.0, 0.0, 0, uint64(3),
		-1.0, 0.5, false, false, true, "nonsense", "nonsense",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	// DRM + server churn + retry queue + a non-default selector in one
	// seed: the selector seam is crossed by arrivals, retry
	// re-attempts, and rescue reconnects all at once.
	f.Add(4, 60.0, 20, 300.0, 900.0, 2.5, 3.0,
		0.2, 0.0, 0, true, 2, 2, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.2, 0.0, 0, uint64(11),
		0.5, 0.1, true, true, true, "random-feasible", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	// Interactivity under intermittent scheduling with a heterogeneous
	// client mix: pause/resume churns the wake index while the two
	// classes diverge on bufCap (StagingFrac) and recvCap (ReceiveCap),
	// so the per-slot lane state is rewritten on every resume.
	f.Add(4, 60.0, 25, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, true, 0.0, 0.3, 10.0, 60.0, 0.271, 1.0, 0.0, 0, uint64(13),
		0.0, 0.0, false, false, false, "", "",
		2, 2.0, 0.3, 0.05, 6.0, 4.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	// Every viewer pauses, with short pauses (rapid resume churn) and a
	// single class whose receive cap sits barely above the view rate:
	// spare feeds saturate immediately, so the spare path's wake-key
	// rewrites happen at the recvCap clamp.
	f.Add(3, 45.0, 20, 300.0, 900.0, 2.0, 3.0,
		0.0, 0.0, 1, false, 1, 1, false, false, 0.0, 1.0, 1.0, 5.0, 0.0, 1.0, 0.0, 0, uint64(17),
		0.0, 0.0, false, false, false, "", "",
		1, 0.0, 0.5, 0.0, 3.5, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	// Degenerate mix weights: class B has weight zero (never drawn but
	// still validated), pause range collapsed to a point, even-split
	// spare. Exercises the ClientMix validation edge and the fixed-length
	// pause path together.
	f.Add(3, 45.0, 20, 300.0, 900.0, 2.0, 3.0,
		0.1, 0.0, 2, false, 1, 1, false, true, 0.0, 0.5, 45.0, 45.0, 0.0, 1.0, 0.0, 0, uint64(19),
		0.0, 0.0, false, false, false, "", "",
		2, 0.0, 0.4, 0.2, 0.0, 8.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	// Brownout churn under two traffic classes with shedding armed: the
	// shed controller, the class selector seam, and dimmed capacity all
	// interact on one audited run.
	f.Add(4, 60.0, 20, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, 0.0, 0, uint64(23),
		0.0, 0.0, false, true, true, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.3, 0.1, 0.5, 2, 3.0, 600.0, 0.75, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	// Flash crowd stacked on a diurnal curve with classes but no
	// shedding: the thinned arrival path feeds the class draw while the
	// surge concentrates on video zero.
	f.Add(4, 60.0, 20, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, 0.0, 0, uint64(29),
		0.0, 0.0, false, true, true, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 2, 1.0, 0.0, 0.0, 0.5, 3.0,
		0, 0.0, 0.0, "", "", 0.0)
	// Edge tier with batch-prefix sharing: suffix streams with nonzero
	// start offsets cross the prefix probe and the join path in one
	// audited run.
	f.Add(4, 60.0, 20, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, 0.0, 0, uint64(31),
		0.0, 0.0, false, false, false, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		2, 300.0, 20000.0, "", "batch-prefix", 120.0)
	// An lru-filled edge under fault churn with the retry queue: cache
	// content depends on arrival order, which rescue re-attempts and
	// degraded restarts reshuffle.
	f.Add(4, 60.0, 20, 300.0, 900.0, 2.0, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, 0.0, 0, uint64(37),
		0.5, 0.1, false, true, true, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		1, 600.0, 9000.0, "lru", "", 0.0)
	// Three shapes that once validated and then failed to build: a θ
	// whose Zipf weights overflow, a failure scheduled at +Inf, and a
	// staging client class under a receive cap below the view rate
	// while the policy's own StagingFrac is zero.
	f.Add(5, 100.0, 50, 600.0, 1800.0, 2.2, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 1000.0, 1.0, 0.0, 0, uint64(41),
		0.0, 0.0, false, false, false, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	f.Add(5, 100.0, 50, 600.0, 1800.0, 2.2, 3.0,
		0.2, 0.0, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, math.Inf(1), 0, uint64(43),
		0.0, 0.0, false, false, false, "", "",
		0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	f.Add(5, 100.0, 50, 600.0, 1800.0, 2.2, 3.0,
		0.0, 0.5, 0, true, 1, 1, false, false, 0.0, 0.0, 30.0, 120.0, 0.271, 1.0, 0.0, 0, uint64(47),
		0.0, 0.0, false, false, false, "", "",
		1, 0.0, 0.2, 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0,
		0, 0.0, 0.0, "", "", 0.0)
	f.Fuzz(func(t *testing.T,
		numServers int, bw float64, numVideos int, minLen, maxLen, avgCopies, viewRate float64,
		stagingFrac, receiveCap float64, spare int, migration bool, maxHops, maxChain int,
		replicate, intermittent bool, patchWindow, pauseProb float64,
		minPause, maxPause float64,
		theta, load, failAt float64, failServer int, seed uint64,
		mtbf, mttr float64, cold, retryQueue, degraded bool,
		selector, planner string,
		classes int, classWeightB, classStagingA, classStagingB, classRecvA, classRecvB float64,
		bmtbf, bmttr, bfrac float64, tclasses int, tShareB, tPatience, shedWM float64,
		diurnalAmp, flashFactor float64,
		edgeNodes int, edgePrefixSec, edgeCacheMb float64,
		edgeCachePol, batchPol string, batchWindow float64) {
		sc := Scenario{
			System: System{
				Name:            "fuzz",
				NumServers:      numServers,
				ServerBandwidth: bw,
				DiskCapacity:    1e6,
				NumVideos:       numVideos,
				MinVideoLength:  minLen,
				MaxVideoLength:  maxLen,
				AvgCopies:       avgCopies,
				ViewRate:        viewRate,
			},
			Policy: Policy{
				Name:             "fuzz",
				StagingFrac:      stagingFrac,
				ReceiveCap:       receiveCap,
				Spare:            SpareKind(spare),
				Migration:        migration,
				MaxHops:          maxHops,
				MaxChain:         maxChain,
				Replicate:        replicate,
				Intermittent:     intermittent,
				PatchWindowSec:   patchWindow,
				PauseProb:        pauseProb,
				MinPauseSec:      minPause,
				MaxPauseSec:      maxPause,
				RetryQueue:       retryQueue,
				DegradedPlayback: degraded,
				Selector:         selector,
				Planner:          planner,
				ShedWatermark:    shedWM,
				EdgeNodes:        edgeNodes,
				EdgePrefixSec:    edgePrefixSec,
				EdgeCacheMb:      edgeCacheMb,
				EdgeCachePolicy:  edgeCachePol,
				BatchPolicy:      batchPol,
				BatchWindowSec:   batchWindow,
			},
			Theta:        theta,
			HorizonHours: 1,
			LoadFactor:   load,
			Seed:         seed,
			Faults: faults.Config{
				MTBFHours: mtbf, MTTRHours: mttr, Cold: cold,
				BrownoutMTBFHours: bmtbf, BrownoutMTTRHours: bmttr, BrownoutFraction: bfrac,
			},
		}
		// classes selects the heterogeneous-population shape: 0 leaves
		// ClientMix nil (homogeneous StagingFrac path), 1 is a single
		// class, anything else a two-class mix. The field values flow
		// through unclamped — Validate owns the rejection.
		switch {
		case classes <= 0:
		case classes == 1:
			sc.Policy.ClientMix = []ClientClass{
				{Weight: 1, StagingFrac: classStagingA, ReceiveCap: classRecvA},
			}
		default:
			sc.Policy.ClientMix = []ClientClass{
				{Weight: 1, StagingFrac: classStagingA, ReceiveCap: classRecvA},
				{Weight: classWeightB, StagingFrac: classStagingB, ReceiveCap: classRecvB},
			}
		}
		// tclasses shapes the traffic-class tiers the same way; one class
		// with shedWM > 0 is a deliberate negative case (Validate requires
		// at least two tiers to differentiate).
		switch {
		case tclasses <= 0:
		case tclasses == 1:
			sc.Policy.Classes = []TrafficClass{
				{Name: "premium", Share: 1, RetryPatienceSec: tPatience},
			}
		default:
			sc.Policy.Classes = []TrafficClass{
				{Name: "premium", Share: 1, RetryPatienceSec: tPatience},
				{Name: "standard", Share: tShareB},
			}
		}
		// The curve params flow through unclamped too; a flash window is
		// synthesized inside the shortened run envelope so accepted curves
		// actually modulate the run.
		sc.Curve = workload.Curve{DiurnalAmp: diurnalAmp}
		if flashFactor != 0 {
			sc.Curve.FlashAt = 30
			sc.Curve.FlashDuration = 60
			sc.Curve.FlashFactor = flashFactor
		}
		// failAt scripts one failure of failServer, unclamped. A trace and
		// the stochastic processes are mutually exclusive, so with those
		// on the failure is left out and the processes are exercised.
		if failAt != 0 && !sc.Faults.Enabled() {
			sc.Faults.Trace = []faults.Event{{AtHours: failAt, Server: failServer, Kind: faults.KindFail}}
		}
		if err := sc.Validate(); err != nil {
			return // rejection is fine; panicking is not
		}
		// Bounded envelope: small enough that a run takes milliseconds.
		if numServers > 5 || numVideos > 50 || bw > 150 ||
			viewRate < 1 || minLen < 60 || maxLen > 1800 ||
			load > 1.5 ||
			stagingFrac > 1 ||
			maxPause > 3600 || classStagingA > 1 || classStagingB > 1 ||
			flashFactor > 20 || tShareB > 1e6 ||
			edgeNodes > 8 || edgePrefixSec > 3600 || batchWindow > 1800 {
			return
		}
		// A sub-minute MTBF would compile thousands of fault events even
		// for the shortened horizon; keep churn but bound the schedule.
		if mtbf > 0 && mtbf < 0.01 || bmtbf > 0 && bmtbf < 0.01 {
			return
		}
		// Placement feasibility depends on the randomized catalog, which
		// Validate cannot see; skip geometries whose expected catalog bytes
		// crowd the cluster's disk (bin-packing may legitimately fail).
		if float64(numVideos)*avgCopies*maxLen*viewRate > 0.5*float64(numServers)*1e6 {
			return
		}
		sc.HorizonHours = 0.05
		if len(sc.Faults.Trace) > 0 {
			sc.Faults.Trace[0].AtHours = 0.02 // keep the validated failure inside the run window
		}
		sc.Audit = true
		if _, err := Run(sc); err != nil {
			t.Fatalf("validated scenario failed to run: %v\nscenario: %+v", err, sc)
		}
	})
}

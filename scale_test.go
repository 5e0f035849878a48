package semicont

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"semicont/internal/faults"
)

// scaleCell returns one cell of the `*-large` experiment family: an
// n-server ScaleSystem under the full fault-tolerance stack at 0.9
// offered load, so every observation channel (wait, retry sojourn,
// glitch, migrations, park) carries data. The 200-server cell
// calibrates to ≈54,000 requests per simulated hour; HorizonHours is
// the request-count dial.
func scaleCell(n int, horizonHours float64) Scenario {
	return Scenario{
		System: ScaleSystem(n),
		Policy: Policy{
			Name:             "scale-faulttol",
			Placement:        EvenPlacement,
			StagingFrac:      0.2,
			ReceiveCap:       DefaultReceiveCap,
			Migration:        true,
			MaxHops:          UnlimitedHops,
			MaxChain:         1,
			RetryQueue:       true,
			DegradedPlayback: true,
		},
		Theta:        0.271,
		LoadFactor:   0.9,
		HorizonHours: horizonHours,
		Seed:         1,
		Stats:        true,
		Faults:       faults.Config{MTBFHours: 8, MTTRHours: 0.5},
	}
}

// TestEngineAllocsBoundedPerRequest guards the memory diet: steady-state
// request handling must run entirely off the engine's freelists, so the
// malloc count of a long run over a short one grows by (almost) nothing
// per additional request. A regression that allocates once per request
// shows up here as a per-request rate near 1 instead of near 0.
func TestEngineAllocsBoundedPerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour scale cells are slow under -short")
	}
	measure := func(hours float64) (allocs uint64, requests int64) {
		t.Helper()
		sc := scaleCell(50, hours)
		// GC first so both measurements start from drained sync.Pools:
		// each run then pays the same engine-construction cost, which
		// the long-minus-short subtraction cancels.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, res.Arrivals
	}
	measure(1) // warm the workload generator's lazy state out of the delta
	shortAllocs, shortReqs := measure(2)
	longAllocs, longReqs := measure(8)
	if longReqs <= shortReqs {
		t.Fatalf("horizon did not scale requests: %d vs %d", shortReqs, longReqs)
	}
	extra := float64(longAllocs) - float64(shortAllocs)
	perReq := extra / float64(longReqs-shortReqs)
	t.Logf("allocs: %d @ %d requests, %d @ %d requests → %.4f allocs/request",
		shortAllocs, shortReqs, longAllocs, longReqs, perReq)
	// The freelists make steady state allocation-free; 0.5 leaves slack
	// for GC-clock noise while still catching any once-per-request site.
	if perReq > 0.5 {
		t.Errorf("%.4f allocations per request; steady state must recycle, not allocate", perReq)
	}
}

// scaleBench is one row of BENCH_scale.json.
type scaleBench struct {
	HorizonHours float64 `json:"horizon_hours"`
	Requests     int64   `json:"requests"`
	WallS        float64 `json:"wall_s"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	WaitP50      float64 `json:"wait_p50"`
	WaitP95      float64 `json:"wait_p95"`
	WaitP99      float64 `json:"wait_p99"`
	GlitchP99    float64 `json:"glitch_p99"`
}

func loadScaleBench(t *testing.T, name string) scaleBench {
	t.Helper()
	raw, err := os.ReadFile("BENCH_scale.json")
	if err != nil {
		t.Fatalf("missing baseline: %v", err)
	}
	var doc struct {
		Benchmarks map[string]scaleBench `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_scale.json: %v", err)
	}
	b, ok := doc.Benchmarks[name]
	if !ok {
		t.Fatalf("BENCH_scale.json has no %q row", name)
	}
	return b
}

// readPeakRSSMB returns the process's peak resident set (VmHWM) in MB.
func readPeakRSSMB(t *testing.T) float64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	t.Skip("no VmHWM line in /proc/self/status")
	return 0
}

// resetPeakRSS resets the kernel's RSS high-water mark to the current
// RSS so VmHWM reflects this test, not earlier ones. Best-effort: on
// kernels that refuse the write, VmHWM stays a (looser) upper bound.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runScaleCell runs one 200-server cell and reports its measurements.
func runScaleCell(t *testing.T, horizonHours float64) (res *Result, wallS, rssMB float64) {
	t.Helper()
	sc := scaleCell(200, horizonHours)
	sc.Audit = true
	sc.AuditSample = 512 // the family's sampling rate; full snapshots are O(servers)
	runtime.GC()
	resetPeakRSS()
	start := time.Now()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	wallS = time.Since(start).Seconds()
	rssMB = readPeakRSSMB(t)
	w, g := res.Dist.Wait.Summary(), res.Dist.Glitch.Summary()
	t.Logf("scale cell %gh: requests=%d wall=%.1fs peak_rss=%.0fMB audited=%d",
		horizonHours, res.Arrivals, wallS, rssMB, res.AuditedEvents)
	t.Logf("  wait   p50=%.6f p95=%.6f p99=%.6f (n=%d)", w.P50, w.P95, w.P99, res.Dist.Wait.N())
	t.Logf("  glitch p50=%.6f p95=%.6f p99=%.6f (n=%d)", g.P50, g.P95, g.P99, res.Dist.Glitch.N())
	return res, wallS, rssMB
}

// TestScaleSmoke runs the smallest `*-large` cell (~10^6 requests,
// ~18 simulated hours on 200 servers) against the BENCH_scale.json
// baseline: the arrival count and wait/glitch quantiles must be
// bit-identical (the determinism contract extends to the sketches), and
// wall/RSS must stay within slack of the recorded run. Gated behind
// SEMICONT_SCALE_SMOKE=1 — CI's scale-smoke job sets it; local `go
// test` skips.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("SEMICONT_SCALE_SMOKE") == "" {
		t.Skip("set SEMICONT_SCALE_SMOKE=1 to run the ~10^6-request scale smoke")
	}
	base := loadScaleBench(t, "ScaleTrial1e6")
	res, wallS, rssMB := runScaleCell(t, base.HorizonHours)
	if res.Arrivals != base.Requests {
		t.Errorf("arrivals = %d, baseline %d — the workload is no longer deterministic", res.Arrivals, base.Requests)
	}
	w, g := res.Dist.Wait.Summary(), res.Dist.Glitch.Summary()
	if w.P50 != base.WaitP50 || w.P95 != base.WaitP95 || w.P99 != base.WaitP99 {
		t.Errorf("wait quantiles %.9g/%.9g/%.9g, baseline %.9g/%.9g/%.9g — sketch determinism broken",
			w.P50, w.P95, w.P99, base.WaitP50, base.WaitP95, base.WaitP99)
	}
	if g.P99 != base.GlitchP99 {
		t.Errorf("glitch p99 = %.9g, baseline %.9g", g.P99, base.GlitchP99)
	}
	if wallS > base.WallS*4 {
		t.Errorf("wall %.1fs exceeds 4× baseline %.1fs", wallS, base.WallS)
	}
	if rssMB > base.PeakRSSMB*2 {
		t.Errorf("peak RSS %.0fMB exceeds 2× baseline %.0fMB", rssMB, base.PeakRSSMB)
	}
}

// TestScaleDemo10M is the headline demonstration: a single 10^7-request
// trial (≈185 simulated hours) completes in bounded memory — peak RSS
// comparable to the 10^6-request run, i.e. independent of request
// count, because the streaming layer retains sketches, not samples.
// Gated behind SEMICONT_SCALE_DEMO=1 (~a minute of wall clock).
func TestScaleDemo10M(t *testing.T) {
	if os.Getenv("SEMICONT_SCALE_DEMO") == "" {
		t.Skip("set SEMICONT_SCALE_DEMO=1 to run the 10^7-request demonstration")
	}
	small := loadScaleBench(t, "ScaleTrial1e6")
	base := loadScaleBench(t, "ScaleTrial1e7")
	res, _, rssMB := runScaleCell(t, base.HorizonHours)
	if res.Arrivals != base.Requests {
		t.Errorf("arrivals = %d, baseline %d", res.Arrivals, base.Requests)
	}
	if res.Arrivals < 9_000_000 {
		t.Errorf("only %d requests — not a 10^7-scale run", res.Arrivals)
	}
	// The claim under test: 10× the requests, same memory.
	if rssMB > small.PeakRSSMB*2 {
		t.Errorf("peak RSS %.0fMB at 10^7 requests exceeds 2× the 10^6-request baseline %.0fMB — memory is not request-count independent",
			rssMB, small.PeakRSSMB)
	}
	if res.Dist.Wait.N() == 0 || res.Dist.Glitch.N() == 0 {
		t.Error("wait/glitch sketches are empty at 10^7 requests")
	}
}

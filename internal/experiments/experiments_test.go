package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"semicont"
	"semicont/internal/report"
)

// tinyOpts makes every experiment cheap enough for the unit-test suite:
// short horizon, one trial, three θ points.
func tinyOpts() Options {
	return Options{
		HorizonHours: 2,
		Trials:       1,
		Seed:         1,
		Thetas:       []float64{-1, 0, 1},
	}
}

func TestRegistryIDsUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := Find(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("Find(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Find("nonsense"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(IDs()) != len(Registry()) {
		t.Error("IDs() length mismatch")
	}
}

func TestDefaultThetaSweep(t *testing.T) {
	ts := DefaultThetaSweep()
	if len(ts) != 11 {
		t.Fatalf("sweep has %d points, want 11", len(ts))
	}
	if ts[0] != -1.5 || ts[len(ts)-1] < 0.999 {
		t.Errorf("sweep range = [%g, %g]", ts[0], ts[len(ts)-1])
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.HorizonHours != 100 || o.Trials != semicont.PaperTrials || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if o.Thetas == nil || o.Progress == nil {
		t.Error("defaults missing sweep or progress")
	}
	p := PaperScale()
	if p.HorizonHours != 1000 || p.Trials != 5 {
		t.Errorf("PaperScale = %+v", p)
	}
}

func TestTables(t *testing.T) {
	t3 := TableFig3()
	if len(t3.Tables) != 1 || len(t3.Tables[0].Rows) < 6 {
		t.Errorf("t3 = %+v", t3)
	}
	var found bool
	for _, row := range t3.Tables[0].Rows {
		if row[0] == "Number of Servers" && row[1] == "5" && row[2] == "20" {
			found = true
		}
	}
	if !found {
		t.Error("t3 missing server counts")
	}

	t6 := TableFig6()
	if len(t6.Tables[0].Rows) != 8 {
		t.Errorf("t6 has %d policies", len(t6.Tables[0].Rows))
	}
	if t6.Tables[0].Rows[3][0] != "P4" || t6.Tables[0].Rows[3][2] != "Migr" {
		t.Errorf("P4 row = %v", t6.Tables[0].Rows[3])
	}
}

// TestStringFormats pins the parameter table's unit formatting:
// lengths in minutes below an hour and in hours from one up, storage in
// decimal GB.
func TestStringFormats(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{duration(90), "1.5 min"},
		{duration(1800), "30.0 min"},
		{duration(3599), "60.0 min"},
		{duration(3600), "1.00 h"},
		{duration(7200), "2.00 h"},
		{gbString(16000), "2 GB"},
		{gbString(1_200_000), "150 GB"},
	} {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestFig4Tiny(t *testing.T) {
	out, err := Fig4(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figures[0]
	if len(fig.Series) != 3 {
		t.Fatalf("fig4 has %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 3 {
			t.Errorf("series %q has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mean <= 0 || p.Mean > 1.1 {
				t.Errorf("series %q utilization %v at x=%g out of range", s.Name, p.Mean, p.X)
			}
		}
	}
	// Migration should not hurt: at every theta the hops=1 curve is at
	// least (almost) the no-migration curve.
	noMigr, hops1 := fig.Series[0], fig.Series[1]
	for i := range noMigr.Points {
		if hops1.Points[i].Mean < noMigr.Points[i].Mean-0.02 {
			t.Errorf("theta=%g: DRM hurt utilization (%v vs %v)",
				noMigr.Points[i].X, hops1.Points[i].Mean, noMigr.Points[i].Mean)
		}
	}
}

func TestFig5Tiny(t *testing.T) {
	out, err := Fig5(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figures[0]
	if len(fig.Series) != 4 {
		t.Fatalf("fig5 has %d series", len(fig.Series))
	}
	names := []string{"0% buffer", "2% buffer", "20% buffer", "100% buffer"}
	for i, s := range fig.Series {
		if s.Name != names[i] {
			t.Errorf("series %d name %q, want %q", i, s.Name, names[i])
		}
	}
	// At uniform demand (θ=1, last point) staging must help: 20% ≥ 0%.
	last := len(fig.Series[0].Points) - 1
	if fig.Series[2].Points[last].Mean < fig.Series[0].Points[last].Mean {
		t.Errorf("20%% buffer below 0%% at theta=1: %v vs %v",
			fig.Series[2].Points[last].Mean, fig.Series[0].Points[last].Mean)
	}
}

func TestFig7Tiny(t *testing.T) {
	out, err := Fig7(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 8 {
		t.Fatalf("fig7 has %d series, want 8 policies", len(out.Figures[0].Series))
	}
	for i, s := range out.Figures[0].Series {
		if !strings.HasPrefix(s.Name, "P") {
			t.Errorf("series %d name %q", i, s.Name)
		}
	}
}

func TestSVBRTiny(t *testing.T) {
	// A small-SVBR server sees only ~15 arrivals per simulated hour, so
	// this test needs a longer horizon than the others to beat the
	// sampling noise.
	opts := tinyOpts()
	opts.HorizonHours = 30
	opts.Trials = 2
	out, err := SVBR(opts)
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figures[0]
	if len(fig.Series) != 2 {
		t.Fatalf("svbr has %d series", len(fig.Series))
	}
	sim, ana := fig.Series[0], fig.Series[1]
	// The analytic curve is monotone increasing; the simulation should
	// track it loosely even at tiny scale.
	for i := 1; i < len(ana.Points); i++ {
		if ana.Points[i].Mean <= ana.Points[i-1].Mean {
			t.Errorf("analytic curve not monotone at %g", ana.Points[i].X)
		}
	}
	for i := range sim.Points {
		if diff := sim.Points[i].Mean - ana.Points[i].Mean; diff > 0.15 || diff < -0.15 {
			t.Errorf("svbr=%g: sim %v vs analytic %v", sim.Points[i].X, sim.Points[i].Mean, ana.Points[i].Mean)
		}
	}
}

func TestStagingSweepTiny(t *testing.T) {
	out, err := StagingSweep(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 2 {
		t.Fatalf("stage has %d series", len(out.Figures[0].Series))
	}
}

func TestHeterogeneityTiny(t *testing.T) {
	out, err := Heterogeneity(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 3 {
		t.Fatalf("het has %d series", len(out.Figures[0].Series))
	}
}

func TestHomogeneousSpread(t *testing.T) {
	for i, v := range spread(5, 100, 0) {
		if v != 100 {
			t.Errorf("server %d = %v, want 100", i, v)
		}
	}
}

func TestSpreadAlternates(t *testing.T) {
	vals := spread(4, 100, 0.5)
	want := []float64{150, 50, 150, 50}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Errorf("server %d = %v, want %v", i, vals[i], w)
		}
	}
}

func TestSpreadOddMiddleKeepsMean(t *testing.T) {
	if vals := spread(5, 100, 0.5); vals[4] != 100 {
		t.Errorf("odd server = %v, want the mean", vals[4])
	}
}

// Property: totals are preserved for any level and size.
func TestSpreadPreservesTotal(t *testing.T) {
	prop := func(nRaw, levelRaw uint8) bool {
		n := int(nRaw%20) + 1
		level := float64(levelRaw%100) / 101
		total := 0.0
		for _, v := range spread(n, 100, level) {
			if v <= 0 {
				return false
			}
			total += v
		}
		return math.Abs(total-float64(n)*100) < 1e-9*float64(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPartialPredictiveTiny(t *testing.T) {
	out, err := PartialPredictive(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 3 {
		t.Fatalf("partial has %d series", len(out.Figures[0].Series))
	}
}

func TestChainLengthTiny(t *testing.T) {
	out, err := ChainLength(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 3 {
		t.Fatalf("chain has %d series", len(out.Figures[0].Series))
	}
}

func TestSwitchDelayTiny(t *testing.T) {
	out, err := SwitchDelay(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 3 {
		t.Fatalf("switch has %d series", len(out.Figures[0].Series))
	}
}

func TestFailoverTiny(t *testing.T) {
	out, err := Failover(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || len(out.Tables[0].Rows) != 3 {
		t.Fatalf("failover table = %+v", out.Tables)
	}
}

func TestFaultSweepTiny(t *testing.T) {
	out, err := FaultSweep(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 3 {
		t.Fatalf("fault-sweep has %d figures, want denial + drop + glitch", len(out.Figures))
	}
	for _, fig := range out.Figures {
		if len(fig.Series) != 4 {
			t.Fatalf("%s has %d series, want one per scheduler (4)", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != 5 {
				t.Errorf("%s/%s has %d points, want 5", fig.ID, s.Name, len(s.Points))
			}
		}
	}
	// The shortest MTBF injects real churn even at tiny scale.
	if p := out.Figures[0].Series[0].Points[0]; p.Mean <= 0 {
		t.Errorf("no denial under heavy churn (mtbf=%g): %v", p.X, p.Mean)
	}
}

// TestFaultSweepEFTFBeatsEvenSplit pins the experiment's headline
// comparison: EFTF front-loads workahead into the emptiest client
// buffers, so streams parked by a failure survive longer outages than
// under even-split — summed over the MTBF grid, its glitch rate must be
// strictly lower, and its drop rate no worse. Scaled down from the
// registry run but long enough for the effect to dominate noise.
func TestFaultSweepEFTFBeatsEvenSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour fault sweep skipped in -short mode")
	}
	out, err := FaultSweep(semicont.SmallSystem(), Options{HorizonHours: 20, Trials: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(fig Figure, name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				total := 0.0
				for _, p := range s.Points {
					total += p.Mean
				}
				return total
			}
		}
		t.Fatalf("%s: no series %q", fig.ID, name)
		return 0
	}
	drops, glitches := out.Figures[1], out.Figures[2]
	if eftf, even := sum(glitches, "minflow-eftf"), sum(glitches, "minflow-evensplit"); eftf >= even {
		t.Errorf("eftf glitch rate %v not below evensplit %v", eftf, even)
	}
	if eftf, even := sum(drops, "minflow-eftf"), sum(drops, "minflow-evensplit"); eftf > even+1e-3 {
		t.Errorf("eftf drop rate %v worse than evensplit %v", eftf, even)
	}
}

func TestOverloadSweepTiny(t *testing.T) {
	out, err := OverloadSweep(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 3 {
		t.Fatalf("overload-sweep has %d figures, want premium + standard + glitch", len(out.Figures))
	}
	for _, fig := range out.Figures {
		if len(fig.Series) != 3 {
			t.Fatalf("%s has %d series, want shed-off + two watermarks", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			if len(s.Points) != 4 {
				t.Errorf("%s/%s has %d points, want 4", fig.ID, s.Name, len(s.Points))
			}
		}
	}
}

// TestOverloadSheddingProtectsPremium pins the experiment's headline
// claim: through a flash crowd that doubles the aggregate arrival rate,
// class-based shedding keeps premium denial at least 3× lower than
// running the same surge with shedding disabled — the standard tier
// absorbs the cuts. Scaled down from the registry run but long enough
// for the effect to dominate noise.
func TestOverloadSheddingProtectsPremium(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour overload sweep skipped in -short mode")
	}
	out, err := OverloadSweep(semicont.SmallSystem(), Options{HorizonHours: 20, Trials: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	at := func(fig Figure, name string, x float64) float64 {
		for _, s := range fig.Series {
			if s.Name != name {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					return p.Mean
				}
			}
		}
		t.Fatalf("%s: no point %q at x=%g", fig.ID, name, x)
		return 0
	}
	premium := out.Figures[0]
	off, on := at(premium, "shed-off", 2), at(premium, "wm=0.75", 2)
	if off <= 0 {
		t.Fatalf("2x flash crowd denied no premium arrivals without shedding (off=%v)", off)
	}
	if on > off/3 {
		t.Errorf("premium denial with shedding %v not 3x below shed-off %v", on, off)
	}
}

func TestAdmissionSweepTiny(t *testing.T) {
	out, err := AdmissionSweep(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 {
		t.Fatalf("admission-sweep has %d figures, want denial + utilization", len(out.Figures))
	}
	sels := len(semicont.SelectorNames())
	for _, fig := range out.Figures {
		if len(fig.Series) != sels {
			t.Fatalf("%s has %d series, want one per selector (%d)", fig.ID, len(fig.Series), sels)
		}
		for _, s := range fig.Series {
			if len(s.Points) != 5 {
				t.Errorf("%s/%s has %d points, want 5", fig.ID, s.Name, len(s.Points))
			}
		}
	}
	// 130% offered load must overflow even at tiny scale.
	den := out.Figures[0]
	if p := den.Series[0].Points[len(den.Series[0].Points)-1]; p.Mean <= 0 {
		t.Errorf("no denial at load=%g: %v", p.X, p.Mean)
	}
}

// TestAdmissionSweepFirstFitDeniesMore pins the experiment's headline
// ordering: at and past saturation, first-fit piles streams onto the
// low-index holders and strands feasible slots elsewhere, so its denial
// rate is at least least-loaded's, which balances every holder of a
// video. Compared at load 1.0 and above, summed, with a small slack for
// sampling noise. Scaled down from the registry run.
func TestAdmissionSweepFirstFitDeniesMore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hour admission sweep skipped in -short mode")
	}
	out, err := AdmissionSweep(semicont.SmallSystem(), Options{HorizonHours: 20, Trials: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(fig Figure, name string) float64 {
		for _, s := range fig.Series {
			if s.Name == name {
				total := 0.0
				for _, p := range s.Points {
					if p.X >= 1.0 {
						total += p.Mean
					}
				}
				return total
			}
		}
		t.Fatalf("%s: no series %q", fig.ID, name)
		return 0
	}
	denial := out.Figures[0]
	ff, ll := sum(denial, semicont.SelectorFirstFit), sum(denial, semicont.SelectorLeastLoaded)
	if ff < ll-1e-3 {
		t.Errorf("first-fit denial %v below least-loaded %v at load >= 1.0", ff, ll)
	}
}

func TestProgressCallback(t *testing.T) {
	opts := tinyOpts()
	var lines int
	opts.Progress = func(string, ...any) { lines++ }
	if _, err := Fig4(semicont.SmallSystem(), opts); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("no progress reported")
	}
}

func TestIntermittentTiny(t *testing.T) {
	out, err := Intermittent(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 {
		t.Fatalf("intermittent has %d figures, want utilization + glitches", len(out.Figures))
	}
	// Minimum-flow must be glitch-free at every theta.
	for _, p := range out.Figures[1].Series[0].Points {
		if p.Mean != 0 {
			t.Errorf("minimum-flow glitch rate %v at theta=%g", p.Mean, p.X)
		}
	}
}

func TestClientMixTiny(t *testing.T) {
	out, err := ClientMix(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	pts := out.Figures[0].Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("clientmix has %d points", len(pts))
	}
	// All-staged (thin=0) should not be worse than all-thin (thin=1).
	if pts[0].Mean < pts[len(pts)-1].Mean-0.02 {
		t.Errorf("fully staged %v below fully thin %v", pts[0].Mean, pts[len(pts)-1].Mean)
	}
}

func TestReplicationTiny(t *testing.T) {
	out, err := Replication(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 {
		t.Fatalf("replication has %d figures", len(out.Figures))
	}
	if len(out.Figures[0].Series) != 4 || len(out.Figures[1].Series) != 2 {
		t.Fatalf("replication series = %d/%d, want 4 utilization + 2 copy curves",
			len(out.Figures[0].Series), len(out.Figures[1].Series))
	}
}

func TestInteractivityExperimentTiny(t *testing.T) {
	out, err := Interactivity(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures[0].Series) != 3 {
		t.Fatalf("interactive has %d series", len(out.Figures[0].Series))
	}
	for _, s := range out.Figures[0].Series {
		if len(s.Points) != 5 {
			t.Errorf("series %q has %d points", s.Name, len(s.Points))
		}
	}
}

// updateDigests rewrites the registry fixture. Regenerate it only for a
// deliberate change to an experiment's output, and say why in the
// commit. The package must come before the flag, which go test passes
// to the test binary:
//
//	go test ./internal/experiments -run TestRegistryRunsEndToEnd -update-digests
var updateDigests = flag.Bool("update-digests", false, "rewrite "+registryDigestsPath+" from the current experiments")

const registryDigestsPath = "testdata/registry_digests.json"

// renderDigest hashes the bytes paperfigs prints and writes for out:
// every table, every figure's series table, and every figure's CSV.
func renderDigest(out *Output) (string, error) {
	h := sha256.New()
	for _, tbl := range out.Tables {
		if err := tbl.Write(h); err != nil {
			return "", err
		}
	}
	for _, fig := range out.Figures {
		tbl, err := report.SeriesTable(fig.Title, fig.XLabel, fig.Series)
		if err != nil {
			return "", err
		}
		if err := tbl.Write(h); err != nil {
			return "", err
		}
		if err := report.WriteSeriesCSV(h, fig.XLabel, fig.Series); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestRegistryRunsEndToEnd executes every registered experiment at a
// minimal scale — the whole harness, every figure and table, in one
// sweep — and pins each rendered Output to a committed SHA-256, so a
// refactor of the harness must reproduce every simulated value. Two
// trials per point exercise the cross-trial aggregation (a single
// trial has no CI95). No trial here has a zero rate denominator;
// TestRatioSkipsZeroDenominator covers that guard. Skipped under
// -short.
func TestRegistryRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep skipped in -short mode")
	}
	opts := Options{
		HorizonHours: 1,
		Trials:       2,
		Seed:         1,
		Thetas:       []float64{0},
		Audit:        true, // every experiment must survive the invariant auditor
	}
	got := make(map[string]string)
	for _, e := range Registry() {
		out, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out.Figures) == 0 && len(out.Tables) == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
		for _, fig := range out.Figures {
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Errorf("%s: series %q empty", e.ID, s.Name)
				}
			}
		}
		if got[e.ID], err = renderDigest(out); err != nil {
			t.Fatalf("%s: render: %v", e.ID, err)
		}
	}

	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(registryDigestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(registryDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), registryDigestsPath)
		return
	}
	data, err := os.ReadFile(registryDigestsPath)
	if err != nil {
		t.Fatalf("read digests (run with -update-digests to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: digest present but experiment missing from the registry", id)
			continue
		}
		if g != w {
			t.Errorf("%s: rendered output diverged from its digest\n got %s\nwant %s", id, g, w)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s: experiment has no digest (run -update-digests)", id)
		}
	}
}

func TestClusterAnalysisTiny(t *testing.T) {
	out, err := ClusterAnalysis(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	fig := out.Figures[0]
	if len(fig.Series) != 4 {
		t.Fatalf("analytic has %d series", len(fig.Series))
	}
	lower, upper := fig.Series[0], fig.Series[3]
	for i := range lower.Points {
		if lower.Points[i].Mean > upper.Points[i].Mean+1e-9 {
			t.Errorf("bracket inverted at theta=%g", lower.Points[i].X)
		}
	}
}

func TestSpareDisciplinesTiny(t *testing.T) {
	out, err := SpareDisciplines(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 {
		t.Fatalf("eftf ablation has %d figures", len(out.Figures))
	}
	for _, fig := range out.Figures {
		if len(fig.Series) != 3 {
			t.Errorf("%s has %d series", fig.ID, len(fig.Series))
		}
	}
}

func TestPatchingExperimentTiny(t *testing.T) {
	out, err := Patching(semicont.SmallSystem(), tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != 2 {
		t.Fatalf("patching has %d figures", len(out.Figures))
	}
	if len(out.Figures[0].Series) != 3 || len(out.Figures[1].Series) != 2 {
		t.Fatalf("patching series = %d/%d", len(out.Figures[0].Series), len(out.Figures[1].Series))
	}
}

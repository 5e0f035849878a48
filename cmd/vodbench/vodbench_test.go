package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"semicont"
)

// testScale shrinks every workload to a few thousand requests a part.
const testScale = 0.05

// TestMain lets the test binary stand in for the vodbench binary: a
// parent under test spawns os.Executable() with -child first, and the
// child measures the workloads at testScale.
func TestMain(m *testing.M) {
	scale = testScale
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestStagedMatchesEntryPoints pins the staged pipeline to the entry
// points it rebuilds: with every tracing hook attached, a traced part
// equals semicont.Run field for field (sketches included), and for the
// sweep its assembled points equal experiments.Fig7's. One comparison
// shows both that the stages are faithful and that tracing leaves the
// result untouched.
func TestStagedMatchesEntryPoints(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			jobs := w.jobs(1, 0, testScale)
			recs, err := runTraced(jobs, w.workers(), 0)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*semicont.Result, len(recs))
			for i, r := range recs {
				results[i] = r.res
			}
			if !w.isSweep() {
				want, err := semicont.Run(jobs[0])
				if err != nil {
					t.Fatal(err)
				}
				got := *results[0]
				if !got.Dist.Equal(want.Dist) {
					t.Error("Dist sketches differ")
				}
				exp := *want
				got.Dist, exp.Dist = nil, nil
				if got != exp {
					gv, ev := reflect.ValueOf(got), reflect.ValueOf(exp)
					for i := 0; i < gv.NumField(); i++ {
						if !reflect.DeepEqual(gv.Field(i).Interface(), ev.Field(i).Interface()) {
							t.Errorf("Result.%s = %v, semicont.Run has %v", gv.Type().Field(i).Name, gv.Field(i), ev.Field(i))
						}
					}
				}
			}
			got, err := w.assemble(0, results)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.runPart(1, 0, testScale)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("traced output digest %s, entry point %s", got, want)
			}
		})
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// invoke runs one single-workload invocation of b and parses its final
// JSON line.
func invoke(t *testing.T, b *bench, args ...string) (int, resultLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	b.stdout, b.stderr = &out, &errOut
	code := b.main(args)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v\nstderr: %s", lines[len(lines)-1], err, errOut.String())
	}
	return code, res
}

func testBench(t *testing.T, digests map[string]map[string]string) *bench {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{exe: exe, digests: digests}
}

// TestEmitsBenchmarkMetrics holds the metric tables to BENCHMARK.json
// and checks that every workload emits exactly its metrics, in both
// modes, through the real parent and child processes.
func TestEmitsBenchmarkMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []metricEntry
		code []metric
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		var names []metricEntry
		for _, m := range c.code {
			names = append(names, metricEntry{m.name, m.unit, m.better})
		}
		if !slices.Equal(c.file, names) {
			t.Errorf("BENCHMARK.json lists %v, the code %v", c.file, names)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, the code's %d is %q", names, i, w.name)
		}
	}

	b := testBench(t, nil)
	for _, w := range workloads {
		for mode, list := range [][]metric{endToEnd, perLayer} {
			code, res := invoke(t, b, "-workload", w.name, "-seed", "1", "-seconds", "0", "-trace", []string{"0", "1"}[mode])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, result %+v", w.name, mode, code, res)
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, mode, len(res.Metrics), len(list))
			}
			for _, m := range list {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%d: metric %s missing or not in %s: %+v", w.name, mode, m.name, m.unit, v)
				}
			}
		}
	}
}

// roundDigest is the digest of one untraced round of w at testScale.
func roundDigest(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	parts := make([]string, w.parts)
	for k := range parts {
		var err error
		if parts[k], err = w.runPart(seed, k, testScale); err != nil {
			t.Fatal(err)
		}
	}
	d, err := digest(parts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWrongSeedDigestFails proves the correctness check fires: a run at
// seed 2 checked against seed 1's digest counts its runs failed and
// exits non-zero, while the same run checked against its own digest
// passes.
func TestWrongSeedDigestFails(t *testing.T) {
	w := workloads[0]
	for _, c := range []struct {
		recordedSeed uint64
		wantFail     bool
	}{{2, false}, {1, true}} {
		b := testBench(t, map[string]map[string]string{w.name: {"2": roundDigest(t, w, c.recordedSeed)}})
		code, res := invoke(t, b, "-workload", w.name, "-seed", "2", "-seconds", "0", "-trace", "1")
		failed := code != 0 && !res.Correct && res.Failed == res.Attempted && res.Failed > 0
		passed := code == 0 && res.Correct && res.Failed == 0
		if c.wantFail && !failed || !c.wantFail && !passed {
			t.Errorf("recorded digest of seed %d: exit %d, correct %v, %d of %d failed",
				c.recordedSeed, code, res.Correct, res.Failed, res.Attempted)
		}
	}
}

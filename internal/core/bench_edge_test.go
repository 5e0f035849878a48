package core

import (
	"fmt"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/edge"
	"semicont/internal/placement"
	"semicont/internal/rng"
)

// Edge-probe micro-benchmarks: one edgeProbe call per iteration over a
// tier whose cache budget holds half the catalog's prefixes, so the
// probe stream mixes hits and misses (and, under lru, admissions and
// evictions — the policy's worst case). BENCH_edge.json at the repo
// root holds the baseline recorded when the edge tier landed; the bar
// is zero allocations per operation for every cache policy, because
// the probe runs once per arrival ahead of admission.

// benchEdgeKs are the catalog sizes the edge benches sweep — the probe
// itself is O(1), but lru's eviction loop touches neighbors in the
// recency list, so the sweep goes wide enough to expose cache effects.
var benchEdgeKs = []int{4, 64, 1024}

// benchEdgeEngine builds a full engine with a k-video catalog (fixed
// 1200 s titles, 900 Mb prefixes) on one server and two edge nodes
// whose budget fits half the catalog's prefixes. Like the admission
// benches this goes through NewEngine: edgeProbe walks e.edgeCaches
// and e.edgePrefix, which only the real constructor wires.
func benchEdgeEngine(tb testing.TB, policy string, k int) *Engine {
	tb.Helper()
	bview := 3.0
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: k, MinLength: 1200, MaxLength: 1200, ViewRate: bview, Theta: 1,
	}, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	holders := make([][]int, k)
	for v := range holders {
		holders[v] = []int{0}
	}
	lay, err := placement.Manual(cat, holders, 1)
	if err != nil {
		tb.Fatal(err)
	}
	prefixMb := 300 * bview // per video, below the 3600 Mb object size
	cfg := Config{
		ServerBandwidth: []float64{10 * bview},
		ViewRate:        bview,
		Edge: EdgeConfig{
			Nodes:       2,
			PrefixSec:   300,
			CacheMb:     prefixMb * float64(k) / 2,
			CachePolicy: policy,
		},
	}
	e, err := NewEngine(cfg, cat, lay, &scriptSource{})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// BenchmarkEdgeAdmit measures the per-arrival edge cost: one probe
// against the arrival's round-robin node, rotating through the catalog
// so hits, misses, and (under lru) evictions all appear in steady
// state.
func BenchmarkEdgeAdmit(b *testing.B) {
	for _, name := range edge.Names() {
		for _, k := range benchEdgeKs {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				e := benchEdgeEngine(b, name, k)
				// Warm the replacement state so lru's first-touch fill
				// is not what gets timed.
				for v := 0; v < k; v++ {
					benchEdgeProbe(e, v)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchEdgeProbe(e, i%k)
				}
			})
		}
	}
}

// TestEdgeAdmitZeroAlloc pins the contract the CachePolicy interface
// documents: Hit sits on the admission hot path and must not allocate,
// for every policy.
func TestEdgeAdmitZeroAlloc(t *testing.T) {
	for _, name := range edge.Names() {
		e := benchEdgeEngine(t, name, 64)
		v := 0
		if got := testing.AllocsPerRun(1000, func() {
			benchEdgeProbe(e, v)
			v++
			if v == 64 {
				v = 0
			}
		}); got != 0 {
			t.Errorf("%s: edge probe allocates %.1f per op, want 0", name, got)
		}
	}
}

package core

import (
	"fmt"
	"testing"

	"semicont/internal/catalog"
	"semicont/internal/placement"
	"semicont/internal/rng"
)

// Admission micro-benchmarks: one Select call per iteration over a
// cluster where every server holds the probed video, parameterized over
// the holder count k, and one DRM planning call from a full server
// (BenchmarkAdmissionDRM, below). BENCH_admission.json at the repo root
// holds the selector baseline recorded when the controller seam landed
// and the DRM planner's rows in its drm_plan section; the bar is zero
// allocations per operation in steady state for every selector (the
// random selector's candidate scratch is warmed before timing) and for
// the planner.

// benchAdmissionKs are the replica-holder counts the admission benches
// sweep — real layouts replicate a video on a handful of servers, not
// the whole cluster, so the sweep stays small where allocators go big.
var benchAdmissionKs = []int{4, 16, 64}

// benchAdmissionEngine builds a full engine (real catalog, layout, and
// server array) with k servers of 10 slots each, all holding video 0,
// and per-server load active streams already attached. Unlike the bare
// allocator benches this goes through NewEngine: selectors walk
// e.holders and e.servers, which only the real constructor wires.
func benchAdmissionEngine(b *testing.B, selector string, k, load int) *Engine {
	b.Helper()
	bview := 3.0
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 1, MinLength: 1200, MaxLength: 1200, ViewRate: bview, Theta: 1,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	holders := make([]int, k)
	bw := make([]float64, k)
	for i := range holders {
		holders[i] = i
		bw[i] = bview * 10 // 10 slots
	}
	lay, err := placement.Manual(cat, [][]int{holders}, k)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{ServerBandwidth: bw, ViewRate: bview, Selector: selector}
	e, err := NewEngine(cfg, cat, lay, &scriptSource{})
	if err != nil {
		b.Fatal(err)
	}
	id := int64(1)
	for _, s := range e.servers {
		// Stagger the loads so least-loaded and most-headroom do real
		// comparisons instead of riding the first-candidate fast path.
		n := load + int(s.id)%2
		if n > s.slots {
			n = s.slots
		}
		for j := 0; j < n; j++ {
			s.attach(&request{id: id, size: 3600}, 0, 0, 0)
			id++
		}
	}
	return e
}

// BenchmarkAdmissionSelect measures the hot admission path: all k
// holders feasible, the selector scans every candidate and picks one.
func BenchmarkAdmissionSelect(b *testing.B) {
	for _, name := range SelectorNames() {
		for _, k := range benchAdmissionKs {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				e := benchAdmissionEngine(b, name, k, 5)
				if benchSelect(e, 0, 0) == nil {
					b.Fatal("hot cluster refused the probe")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSelect(e, 0, 0)
				}
			})
		}
	}
}

// BenchmarkAdmissionSelectSaturated is the 100%-load shape: every
// holder is slot-full, so the scan completes without a pick (the
// engine would then fall through to DRM planning or rejection).
func BenchmarkAdmissionSelectSaturated(b *testing.B) {
	for _, name := range SelectorNames() {
		for _, k := range benchAdmissionKs {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				e := benchAdmissionEngine(b, name, k, 10)
				if benchSelect(e, 0, 0) != nil {
					b.Fatal("saturated cluster admitted the probe")
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSelect(e, 0, 0)
				}
			})
		}
	}
}

// DRM planning micro-benchmark: the scan the controller runs when every
// holder of an arrival's video is full, at the scale-faulttol cell's
// size — 200 servers of 100 slots, every slot taken, each video on two
// servers, unlimited hops and one-move chains.
const (
	benchDRMServers = 200
	benchDRMVideos  = 2000 // 20 titles per server: 10 first copies, 10 second
)

// benchDRMHolders places video v on server v mod 200 and on a second
// server 1 + 17⌊v/200⌋ further along, so a server's streams have ten
// distinct second holders and each server is the second holder of ten
// others' videos.
func benchDRMHolders(v int) []int {
	first := v % benchDRMServers
	return []int{first, (first + 1 + 17*(v/benchDRMServers)) % benchDRMServers}
}

// benchDRMEngine builds the saturated cluster. With spare set, server
// 199 — the second holder of video 199, which server 0 carries — keeps
// one slot free, so planning from server 0 succeeds; without it every
// server is full and planning fails after scanning all of server 0's
// streams, five of each of its 20 titles.
func benchDRMEngine(b *testing.B, spare bool) *Engine {
	b.Helper()
	bview := 3.0
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: benchDRMVideos, MinLength: 1200, MaxLength: 1200, ViewRate: bview, Theta: 1,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	holders := make([][]int, benchDRMVideos)
	held := make([][]int32, benchDRMServers)
	for v := range holders {
		holders[v] = benchDRMHolders(v)
		for _, h := range holders[v] {
			held[h] = append(held[h], int32(v))
		}
	}
	lay, err := placement.Manual(cat, holders, benchDRMServers)
	if err != nil {
		b.Fatal(err)
	}
	bw := make([]float64, benchDRMServers)
	for i := range bw {
		bw[i] = 100 * bview
	}
	cfg := Config{
		ServerBandwidth: bw, ViewRate: bview,
		Migration: MigrationConfig{Enabled: true, MaxHops: UnlimitedHops, MaxChain: 1},
	}
	e, err := NewEngine(cfg, cat, lay, &scriptSource{})
	if err != nil {
		b.Fatal(err)
	}
	id := int64(1)
	for _, s := range e.servers {
		n := s.slots
		if spare && s.id == benchDRMServers-1 {
			n--
		}
		for j := 0; j < n; j++ {
			v := held[s.id][j%len(held[s.id])]
			s.attach(&request{id: id, video: v, size: cat.Video(int(v)).Size}, 0, 0, 0)
			id++
		}
	}
	return e
}

// benchDRMFound keeps the planner's result live so the timed call
// cannot be dropped.
var benchDRMFound bool

// BenchmarkAdmissionDRM times one DRM planning call from a full server
// of 100 streams: "fails" when no holder has room, the 95% case on the
// scale-faulttol cell, and "succeeds" when one target has a free slot.
// The scan visits every stream either way (the planner keeps the best
// move over all of them), but tests a title's other holder only for
// its first migratable stream: 20 canAccept calls for server 0's 20
// titles, not one per stream, and once a title is known to have no
// target its other streams are skipped before their migratable test.
// Neither case allocates.
func BenchmarkAdmissionDRM(b *testing.B) {
	for _, c := range []struct {
		name  string
		spare bool
	}{{"fails", false}, {"succeeds", true}} {
		b.Run(c.name, func(b *testing.B) {
			e := benchDRMEngine(b, c.spare)
			s := e.servers[0]
			if benchPlanDRM(e, s, 0) != c.spare {
				b.Fatalf("planning from server 0 found a move: %v, want %v", !c.spare, c.spare)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchDRMFound = benchPlanDRM(e, s, 0)
			}
		})
	}
}

package placement

import (
	"testing"
	"testing/quick"

	"semicont/internal/catalog"
	"semicont/internal/rng"
)

func capacities(n int, mb float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mb
	}
	return out
}

func TestPlaceBasics(t *testing.T) {
	cat := testCatalog(t, 20, 0)
	counts := make([]int, 20)
	for i := range counts {
		counts[i] = 2
	}
	lay, err := Place(cat, counts, capacities(5, 1e6), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumServers() != 5 {
		t.Errorf("NumServers() = %d", lay.NumServers())
	}
	if lay.TotalCopies() != 40 {
		t.Errorf("TotalCopies() = %d, want 40", lay.TotalCopies())
	}
	if lay.Shortfall() != 0 {
		t.Errorf("Shortfall() = %d", lay.Shortfall())
	}
	for v := 0; v < 20; v++ {
		holders := lay.Holders(v)
		if len(holders) != 2 {
			t.Fatalf("video %d has %d holders, want 2", v, len(holders))
		}
		if holders[0] == holders[1] {
			t.Fatalf("video %d placed twice on server %d", v, holders[0])
		}
		for _, h := range holders {
			if !lay.Holds(v, int(h)) {
				t.Errorf("Holds(%d, %d) = false for a holder", v, h)
			}
		}
		if lay.Holds(v, 99) {
			t.Errorf("Holds(%d, 99) = true", v)
		}
		if lay.CopyCount(v) != 2 {
			t.Errorf("CopyCount(%d) = %d", v, lay.CopyCount(v))
		}
	}
}

func TestPlaceRespectsCapacity(t *testing.T) {
	cat := testCatalog(t, 10, 0)
	// Room for roughly three average (3600 Mb) videos per server.
	caps := capacities(4, 11000)
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 1
	}
	lay, err := Place(cat, counts, caps, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if lay.Used(s) > caps[s] {
			t.Errorf("server %d used %v of %v", s, lay.Used(s), caps[s])
		}
	}
}

func TestPlaceShortfall(t *testing.T) {
	// Fixed-size videos (1200 s × 3 Mb/s = 3600 Mb) so capacities can be
	// arranged exactly: server 0 holds two videos, servers 1 and 2 one
	// each. Video 0 takes all three servers; video 1 then finds room
	// only on server 0 — one of its two copies is a shortfall.
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: 2, MinLength: 1200, MaxLength: 1200, ViewRate: 3, Theta: 0,
	}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{7200, 3600, 3600}
	lay, err := Place(cat, []int{3, 2}, caps, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if lay.Shortfall() != 1 {
		t.Errorf("Shortfall() = %d, want 1", lay.Shortfall())
	}
	if lay.TotalCopies() != 4 {
		t.Errorf("TotalCopies() = %d, want 4", lay.TotalCopies())
	}
	for v := 0; v < 2; v++ {
		if lay.CopyCount(v) < 1 {
			t.Errorf("video %d lost its only copy", v)
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	cat := testCatalog(t, 5, 0)
	if _, err := Place(cat, []int{1, 1}, capacities(3, 1e6), rng.New(1)); err == nil {
		t.Error("count/video length mismatch accepted")
	}
	if _, err := Place(cat, []int{1, 1, 1, 1, 1}, nil, rng.New(1)); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := Place(cat, []int{0, 1, 1, 1, 1}, capacities(3, 1e6), rng.New(1)); err == nil {
		t.Error("zero-copy video accepted")
	}
	if _, err := Place(cat, []int{4, 1, 1, 1, 1}, capacities(3, 1e6), rng.New(1)); err == nil {
		t.Error("more copies than servers accepted")
	}
	// No space at all for some video's only copy.
	if _, err := Place(cat, []int{1, 1, 1, 1, 1}, capacities(2, 100), rng.New(1)); err == nil {
		t.Error("impossible placement accepted")
	}
}

func TestBuild(t *testing.T) {
	cat := testCatalog(t, 50, 0)
	lay, err := Build(Even{}, cat, 2.2, capacities(5, 1e6), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lay.TotalCopies(), 110; got != want {
		t.Errorf("TotalCopies() = %d, want %d", got, want)
	}
	if _, err := Build(Even{}, cat, 0.5, capacities(5, 1e6), rng.New(5)); err == nil {
		t.Error("avgCopies < 1 accepted")
	}
}

// Property: placement always yields distinct holders per video, consistent
// indexes, and capacity compliance.
func TestPlaceProperty(t *testing.T) {
	cat := testCatalog(t, 25, -0.2)
	prop := func(seed uint64, serverRaw, copyRaw uint8) bool {
		nServers := int(serverRaw%8) + 2
		counts := make([]int, 25)
		for i := range counts {
			counts[i] = 1 + int(copyRaw+uint8(i))%nServers
			if counts[i] > nServers {
				counts[i] = nServers
			}
		}
		caps := capacities(nServers, 1e6)
		lay, err := Place(cat, counts, caps, rng.New(seed))
		if err != nil {
			return false
		}
		for v := 0; v < 25; v++ {
			hs := lay.Holders(v)
			if len(hs) != counts[v] {
				return false
			}
			seen := map[int32]bool{}
			for _, h := range hs {
				if seen[h] || int(h) >= nServers {
					return false
				}
				seen[h] = true
			}
		}
		for s := 0; s < nServers; s++ {
			if lay.Used(s) > caps[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestManualLayout(t *testing.T) {
	cat := testCatalog(t, 3, 0)
	lay, err := Manual(cat, [][]int{{0}, {0, 1}, {2}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumServers() != 3 || lay.TotalCopies() != 4 {
		t.Errorf("servers=%d copies=%d", lay.NumServers(), lay.TotalCopies())
	}
	if !lay.Holds(1, 0) || !lay.Holds(1, 1) || lay.Holds(1, 2) {
		t.Error("holder map wrong for video 1")
	}
	if got := lay.Used(0); got != cat.Video(0).Size+cat.Video(1).Size {
		t.Errorf("Used(0) = %v", got)
	}
}

func TestManualLayoutErrors(t *testing.T) {
	cat := testCatalog(t, 2, 0)
	cases := []struct {
		holders [][]int
		servers int
	}{
		{[][]int{{0}}, 2},         // wrong count
		{[][]int{{0}, {}}, 2},     // replica-less video
		{[][]int{{0}, {5}}, 2},    // unknown server
		{[][]int{{0}, {1, 1}}, 2}, // duplicate holder
		{[][]int{{0}, {1}}, 0},    // no servers
	}
	for i, tc := range cases {
		if _, err := Manual(cat, tc.holders, tc.servers); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

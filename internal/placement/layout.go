package placement

import (
	"fmt"
	"slices"

	"semicont/internal/catalog"
	"semicont/internal/rng"
)

// Layout is the result of placement: which server holds a replica of
// which video. It is immutable once built; admission control reads it
// on every arrival.
type Layout struct {
	numServers int
	holders    [][]int32 // video id -> sorted server ids holding a replica
	onServer   [][]int32 // server id -> sorted video ids stored there
	used       []float64 // per-server storage consumed, Mb
	shortfall  int       // copies that could not be placed for lack of space
}

// Place maps the replica counts onto servers: each video's copies go to
// distinct servers chosen at random among those with enough free
// storage. Videos are placed largest-first so big objects are not
// squeezed out by earlier small ones; within the random choice this
// only affects which capacity-constrained placements succeed.
//
// Every video must end up with at least one replica; otherwise Place
// returns an error (requests for an unplaced video could never be
// served). Copies beyond the first that do not fit are counted in
// Shortfall rather than failing the run.
func Place(cat *catalog.Catalog, counts []int, capacities []float64, p *rng.PCG) (*Layout, error) {
	n := cat.Len()
	if len(counts) != n {
		return nil, fmt.Errorf("placement: %d counts for %d videos", len(counts), n)
	}
	numServers := len(capacities)
	if numServers == 0 {
		return nil, fmt.Errorf("placement: no servers")
	}
	for i, c := range counts {
		if c < 1 {
			return nil, fmt.Errorf("placement: video %d has %d copies; every video needs at least one", i, c)
		}
		if c > numServers {
			return nil, fmt.Errorf("placement: video %d has %d copies for %d servers", i, c, numServers)
		}
	}

	l := &Layout{
		numServers: numServers,
		holders:    make([][]int32, n),
		onServer:   make([][]int32, numServers),
		used:       make([]float64, numServers),
	}

	// Largest videos first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		sa, sb := cat.Video(a).Size, cat.Video(b).Size
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		default:
			return a - b
		}
	})

	candidates := make([]int, 0, numServers)
	for _, v := range order {
		size := cat.Video(v).Size
		candidates = candidates[:0]
		for s := 0; s < numServers; s++ {
			if l.used[s]+size <= capacities[s] {
				candidates = append(candidates, s)
			}
		}
		p.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		want := counts[v]
		if want > len(candidates) {
			l.shortfall += want - len(candidates)
			want = len(candidates)
		}
		if want == 0 {
			return nil, fmt.Errorf("placement: no server has %s free for video %d", fmtMb(size), v)
		}
		for _, s := range candidates[:want] {
			l.holders[v] = append(l.holders[v], int32(s))
			l.onServer[s] = append(l.onServer[s], int32(v))
			l.used[s] += size
		}
		sortInt32(l.holders[v])
	}
	for s := range l.onServer {
		sortInt32(l.onServer[s])
	}
	return l, nil
}

// Budget is the replica budget Build gives a strategy: numVideos ×
// avgCopies, rounded to the nearest copy.
func Budget(numVideos int, avgCopies float64) int {
	return int(float64(numVideos)*avgCopies + 0.5)
}

// Build runs a Strategy and places its counts in one step. avgCopies is
// the mean number of replicas per video (Figure 3's "Average Number of
// Copies Per Video", ≈2.2 in the paper).
func Build(strat Strategy, cat *catalog.Catalog, avgCopies float64, capacities []float64, p *rng.PCG) (*Layout, error) {
	if avgCopies < 1 {
		return nil, fmt.Errorf("placement: avgCopies %g < 1", avgCopies)
	}
	counts, err := strat.Copies(cat, Budget(cat.Len(), avgCopies), len(capacities), p)
	if err != nil {
		return nil, err
	}
	return Place(cat, counts, capacities, p)
}

// Manual builds a layout from an explicit replica map: holders[v] lists
// the servers storing video v. It validates distinctness and bounds but
// not storage capacity (the caller has decided the placement). Tests
// and operators with a known-good placement use this instead of the
// randomized Place.
func Manual(cat *catalog.Catalog, holders [][]int, numServers int) (*Layout, error) {
	if len(holders) != cat.Len() {
		return nil, fmt.Errorf("placement: %d holder lists for %d videos", len(holders), cat.Len())
	}
	if numServers <= 0 {
		return nil, fmt.Errorf("placement: need at least one server, got %d", numServers)
	}
	l := &Layout{
		numServers: numServers,
		holders:    make([][]int32, cat.Len()),
		onServer:   make([][]int32, numServers),
		used:       make([]float64, numServers),
	}
	for v, hs := range holders {
		if len(hs) == 0 {
			return nil, fmt.Errorf("placement: video %d has no replica", v)
		}
		seen := make(map[int]bool, len(hs))
		for _, s := range hs {
			if s < 0 || s >= numServers {
				return nil, fmt.Errorf("placement: video %d on unknown server %d", v, s)
			}
			if seen[s] {
				return nil, fmt.Errorf("placement: video %d placed twice on server %d", v, s)
			}
			seen[s] = true
			l.holders[v] = append(l.holders[v], int32(s))
			l.onServer[s] = append(l.onServer[s], int32(v))
			l.used[s] += cat.Video(v).Size
		}
		sortInt32(l.holders[v])
	}
	for s := range l.onServer {
		sortInt32(l.onServer[s])
	}
	return l, nil
}

// NumServers returns the number of servers in the layout.
func (l *Layout) NumServers() int { return l.numServers }

// Holders returns the servers holding a replica of video v, ascending.
// Callers must not modify the returned slice.
func (l *Layout) Holders(v int) []int32 { return l.holders[v] }

// VideosOn returns the videos stored on server s, ascending.
// Callers must not modify the returned slice.
func (l *Layout) VideosOn(s int) []int32 { return l.onServer[s] }

// Holds reports whether server s stores a replica of video v.
func (l *Layout) Holds(v, s int) bool {
	for _, h := range l.holders[v] {
		if int(h) == s {
			return true
		}
	}
	return false
}

// CopyCount returns the number of replicas of video v actually placed.
func (l *Layout) CopyCount(v int) int { return len(l.holders[v]) }

// Used returns the storage consumed on server s in Mb.
func (l *Layout) Used(s int) float64 { return l.used[s] }

// Shortfall returns how many requested copies could not be placed
// because no server had room.
func (l *Layout) Shortfall() int { return l.shortfall }

// TotalCopies returns the total number of replicas placed.
func (l *Layout) TotalCopies() int {
	t := 0
	for _, h := range l.holders {
		t += len(h)
	}
	return t
}

func sortInt32(s []int32) {
	slices.Sort(s)
}

func fmtMb(v float64) string { return fmt.Sprintf("%.0f Mb", v) }

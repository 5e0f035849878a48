// Package placement implements the static video placement strategies of
// the paper (Sections 3.2 and 4.4) and the capacity-aware randomized
// placer that maps replica counts onto servers.
//
// Placement happens once, before any request arrives (Section 4.1):
// first the number of copies of each video is decided by a Strategy,
// then each copy is placed on a randomly chosen server, with all copies
// of one video on distinct servers and per-server storage capacity
// respected.
package placement

import (
	"cmp"
	"fmt"
	"slices"

	"semicont/internal/catalog"
	"semicont/internal/rng"
)

// Strategy decides how many copies each video gets. Implementations:
// Even, Predictive, and PartialPredictive.
type Strategy interface {
	// Name identifies the strategy in reports ("even", "predictive", …).
	Name() string
	// Copies returns the replica count per video. totalCopies is the
	// replica budget (≈ NumVideos × AvgCopies); maxCopies caps any one
	// video's count (normally the number of servers, since two copies of
	// the same video on one server are useless). The returned counts sum
	// to totalCopies unless the cap makes that impossible, and every
	// video gets at least one copy.
	Copies(cat *catalog.Catalog, totalCopies, maxCopies int, p *rng.PCG) ([]int, error)
}

// Even allocates the same number of copies to each video, with the
// remainder distributed to randomly chosen videos ("rounding done at
// random", Section 3.2). It is completely oblivious to popularity.
type Even struct{}

// Name implements Strategy.
func (Even) Name() string { return "even" }

// Copies implements Strategy.
func (Even) Copies(cat *catalog.Catalog, totalCopies, maxCopies int, p *rng.PCG) ([]int, error) {
	n := cat.Len()
	if err := checkBudget(n, totalCopies, maxCopies); err != nil {
		return nil, err
	}
	base := totalCopies / n
	rem := totalCopies % n
	counts := make([]int, n)
	for i := range counts {
		counts[i] = base
	}
	for _, i := range p.Perm(n)[:rem] {
		counts[i]++
	}
	return capAndRedistribute(counts, maxCopies, popularityOrder(cat)), nil
}

// Predictive allocates copies in proportion to each video's (perfectly
// known) popularity, with at least one copy per video (Section 3.2).
type Predictive struct{}

// Name implements Strategy.
func (Predictive) Name() string { return "predictive" }

// Copies implements Strategy.
func (Predictive) Copies(cat *catalog.Catalog, totalCopies, maxCopies int, p *rng.PCG) ([]int, error) {
	n := cat.Len()
	if err := checkBudget(n, totalCopies, maxCopies); err != nil {
		return nil, err
	}
	// Largest-remainder apportionment of totalCopies by popularity, with
	// a floor of one copy per video.
	counts := make([]int, n)
	type frac struct {
		i int
		r float64
	}
	fracs := make([]frac, n)
	assigned := 0
	for i := 0; i < n; i++ {
		ideal := float64(totalCopies) * cat.Video(i).Prob
		c := int(ideal)
		if c < 1 {
			c = 1
		}
		counts[i] = c
		assigned += c
		fracs[i] = frac{i: i, r: ideal - float64(int(ideal))}
	}
	slices.SortFunc(fracs, func(a, b frac) int {
		switch {
		case a.r > b.r:
			return -1
		case a.r < b.r:
			return 1
		default:
			return a.i - b.i
		}
	})
	for k := 0; assigned < totalCopies; k = (k + 1) % n {
		counts[fracs[k].i]++
		assigned++
	}
	// If floors pushed us over budget, trim from the least popular
	// videos that still have more than one copy.
	for i := n - 1; i >= 0 && assigned > totalCopies; i-- {
		for counts[i] > 1 && assigned > totalCopies {
			counts[i]--
			assigned--
		}
	}
	return capAndRedistribute(counts, maxCopies, popularityOrder(cat)), nil
}

// PartialPredictive models limited ability to predict popularity
// (Section 4.4): an even base allocation plus Extra additional copies of
// each of the most popular TopFraction of videos. It only requires
// identifying *which* videos are likely popular, not how popular.
type PartialPredictive struct {
	// TopFraction of the catalog (by popularity) that receives extra
	// copies. Zero defaults to 0.1 (the top 10%).
	TopFraction float64
	// Extra copies granted to each of those videos. Zero defaults to 2.
	Extra int
}

// Name implements Strategy.
func (s PartialPredictive) Name() string { return "partial-predictive" }

// Copies implements Strategy.
func (s PartialPredictive) Copies(cat *catalog.Catalog, totalCopies, maxCopies int, p *rng.PCG) ([]int, error) {
	top, extra, err := s.split(cat.Len(), totalCopies, maxCopies)
	if err != nil {
		return nil, err
	}
	// Spend the boost out of the even budget so total storage matches
	// the other strategies and comparisons stay fair.
	counts, err := (Even{}).Copies(cat, totalCopies-top*extra, maxCopies, p)
	if err != nil {
		return nil, err
	}
	order := popularityOrder(cat)
	for k := 0; k < top; k++ {
		counts[order[k]] += extra
	}
	return capAndRedistribute(counts, maxCopies, order), nil
}

// CheckBudget reports whether s can split totalCopies replicas among n
// videos with at most maxCopies each, as Copies will: the top videos'
// extra copies must leave the even base at least one copy per video.
// It needs no catalog, so a configuration can be vetted before one is
// generated.
func (s PartialPredictive) CheckBudget(n, totalCopies, maxCopies int) error {
	_, _, err := s.split(n, totalCopies, maxCopies)
	return err
}

// split resolves the zero-value defaults into how many of the n most
// popular videos get extra copies and how many each, and checks that
// the even base allocation still fits the rest of the budget.
func (s PartialPredictive) split(n, totalCopies, maxCopies int) (top, extra int, err error) {
	frac := cmp.Or(s.TopFraction, 0.1)
	extra = cmp.Or(s.Extra, 2)
	if !(frac >= 0 && frac <= 1) {
		return 0, 0, fmt.Errorf("placement: TopFraction %g outside [0,1]", frac)
	}
	if extra < 0 {
		return 0, 0, fmt.Errorf("placement: negative Extra %d", extra)
	}
	top = max(int(float64(n)*frac+0.5), 1)
	if top*extra >= totalCopies {
		return 0, 0, fmt.Errorf("placement: extra copies (%d) exceed budget %d", top*extra, totalCopies)
	}
	return top, extra, checkBudget(n, totalCopies-top*extra, maxCopies)
}

func checkBudget(n, totalCopies, maxCopies int) error {
	switch {
	case totalCopies < n:
		return fmt.Errorf("placement: budget %d copies < %d videos (every video needs one copy)", totalCopies, n)
	case maxCopies < 1:
		return fmt.Errorf("placement: maxCopies must be at least 1, got %d", maxCopies)
	case totalCopies > n*maxCopies:
		return fmt.Errorf("placement: budget %d copies > %d videos × %d max copies", totalCopies, n, maxCopies)
	}
	return nil
}

// popularityOrder returns video ids sorted most-popular-first.
func popularityOrder(cat *catalog.Catalog) []int {
	n := cat.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		pa, pb := cat.Video(a).Prob, cat.Video(b).Prob
		switch {
		case pa > pb:
			return -1
		case pa < pb:
			return 1
		default:
			return a - b
		}
	})
	return order
}

// capAndRedistribute clamps each count to maxCopies and hands the freed
// copies to the most popular videos that still have headroom, so the
// budget is preserved whenever that is feasible.
func capAndRedistribute(counts []int, maxCopies int, order []int) []int {
	freed := 0
	for i, c := range counts {
		if c > maxCopies {
			freed += c - maxCopies
			counts[i] = maxCopies
		}
	}
	for _, i := range order {
		if freed == 0 {
			break
		}
		if room := maxCopies - counts[i]; room > 0 {
			give := room
			if give > freed {
				give = freed
			}
			counts[i] += give
			freed -= give
		}
	}
	return counts
}

package placement

import (
	"math"
	"testing"
	"testing/quick"

	"semicont/internal/catalog"
	"semicont/internal/rng"
)

func testCatalog(t *testing.T, n int, theta float64) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		NumVideos: n, MinLength: 600, MaxLength: 1800, ViewRate: 3, Theta: theta,
	}, rng.New(100))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestEvenCopies(t *testing.T) {
	cat := testCatalog(t, 100, 0)
	counts, err := Even{}.Copies(cat, 220, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(counts); got != 220 {
		t.Errorf("total copies = %d, want 220", got)
	}
	twos, threes := 0, 0
	for i, c := range counts {
		switch c {
		case 2:
			twos++
		case 3:
			threes++
		default:
			t.Fatalf("video %d has %d copies; even allocation of 2.2 must give 2 or 3", i, c)
		}
	}
	if twos != 80 || threes != 20 {
		t.Errorf("got %d twos and %d threes, want 80 and 20", twos, threes)
	}
}

func TestEvenCopiesRandomizedRounding(t *testing.T) {
	cat := testCatalog(t, 100, 0)
	a, err := Even{}.Copies(cat, 220, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Even{}.Copies(cat, 220, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("extra-copy videos identical across seeds; rounding should be randomized")
	}
}

func TestPredictiveCopies(t *testing.T) {
	cat := testCatalog(t, 100, -0.5) // skewed
	counts, err := Predictive{}.Copies(cat, 220, 20, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(counts); got != 220 {
		t.Errorf("total copies = %d, want 220", got)
	}
	for i, c := range counts {
		if c < 1 {
			t.Fatalf("video %d has %d copies; predictive must give at least one", i, c)
		}
		if c > 20 {
			t.Fatalf("video %d has %d copies; cap is 20", i, c)
		}
	}
	// The most popular video must get strictly more copies than the
	// median one under this skew.
	if counts[0] <= counts[50] {
		t.Errorf("popular video got %d copies, median video %d", counts[0], counts[50])
	}
}

func TestPredictiveUniformEqualsEvenish(t *testing.T) {
	cat := testCatalog(t, 10, 1) // uniform demand
	counts, err := Predictive{}.Copies(cat, 22, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c < 2 || c > 3 {
			t.Errorf("video %d: %d copies; uniform predictive should spread 22 over 10 as 2s and 3s", i, c)
		}
	}
	if got := sum(counts); got != 22 {
		t.Errorf("total = %d, want 22", got)
	}
}

func TestPartialPredictiveCopies(t *testing.T) {
	cat := testCatalog(t, 100, -0.5)
	strat := PartialPredictive{TopFraction: 0.1, Extra: 2}
	counts, err := strat.Copies(cat, 300, 10, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(counts); got != 300 {
		t.Errorf("total = %d, want 300 (boost comes out of the even budget)", got)
	}
	// Top-10 videos (ids 0..9 are most popular in a fresh catalog) get
	// extra copies relative to the tail.
	topMin := counts[0]
	for i := 1; i < 10; i++ {
		if counts[i] < topMin {
			topMin = counts[i]
		}
	}
	tailMax := 0
	for i := 10; i < 100; i++ {
		if counts[i] > tailMax {
			tailMax = counts[i]
		}
	}
	if topMin <= tailMax-1 {
		t.Errorf("top videos min %d vs tail max %d; expected a visible boost", topMin, tailMax)
	}
}

func TestPartialPredictiveErrors(t *testing.T) {
	cat := testCatalog(t, 10, 0)
	if _, err := (PartialPredictive{TopFraction: 2}).Copies(cat, 30, 5, rng.New(1)); err == nil {
		t.Error("TopFraction > 1 accepted")
	}
	if _, err := (PartialPredictive{Extra: -1}).Copies(cat, 30, 5, rng.New(1)); err == nil {
		t.Error("negative Extra accepted")
	}
	if _, err := (PartialPredictive{TopFraction: 1, Extra: 5}).Copies(cat, 30, 5, rng.New(1)); err == nil {
		t.Error("boost exceeding budget accepted")
	}
}

// TestPartialPredictiveCheckBudget checks that CheckBudget, which needs
// no catalog, gives Copies' verdict on every budget shape, including a
// NaN fraction and extras that leave a video without a copy.
func TestPartialPredictiveCheckBudget(t *testing.T) {
	cat := testCatalog(t, 100, 0)
	for _, frac := range []float64{0, 0.1, 0.5, 0.7, 1, 2, -0.5, math.NaN()} {
		for _, extra := range []int{0, 1, 2, 3, -1} {
			s := PartialPredictive{TopFraction: frac, Extra: extra}
			_, copyErr := s.Copies(cat, Budget(100, 2.2), 5, rng.New(1))
			if checkErr := s.CheckBudget(100, Budget(100, 2.2), 5); (checkErr == nil) != (copyErr == nil) {
				t.Errorf("%+v: CheckBudget %v, Copies %v", s, checkErr, copyErr)
			}
		}
	}
	if err := (PartialPredictive{TopFraction: 0.7, Extra: 2}).CheckBudget(100, 220, 5); err == nil {
		t.Error("extras leaving 80 copies for 100 videos accepted")
	}
}

func TestBudgetErrors(t *testing.T) {
	cat := testCatalog(t, 10, 0)
	if _, err := (Even{}).Copies(cat, 5, 5, rng.New(1)); err == nil {
		t.Error("budget below one copy per video accepted")
	}
	if _, err := (Even{}).Copies(cat, 100, 5, rng.New(1)); err == nil {
		t.Error("budget above n×maxCopies accepted")
	}
	if _, err := (Even{}).Copies(cat, 20, 0, rng.New(1)); err == nil {
		t.Error("maxCopies = 0 accepted")
	}
}

func TestCapAndRedistribute(t *testing.T) {
	counts := []int{10, 1, 1, 1}
	order := []int{0, 1, 2, 3}
	got := capAndRedistribute(counts, 4, order)
	if sum(got) != 13 {
		t.Errorf("total after redistribute = %d, want 13", sum(got))
	}
	for i, c := range got {
		if c > 4 {
			t.Errorf("video %d exceeds cap: %d", i, c)
		}
	}
	if got[0] != 4 {
		t.Errorf("capped video has %d copies, want 4", got[0])
	}
}

func TestStrategyNames(t *testing.T) {
	if (Even{}).Name() != "even" {
		t.Error("Even name")
	}
	if (Predictive{}).Name() != "predictive" {
		t.Error("Predictive name")
	}
	if (PartialPredictive{}).Name() != "partial-predictive" {
		t.Error("PartialPredictive name")
	}
}

// Property: every strategy conserves its budget (when feasible), floors
// at one, and respects the cap.
func TestStrategyProperty(t *testing.T) {
	cat := testCatalog(t, 40, -0.3)
	strategies := []Strategy{Even{}, Predictive{}, PartialPredictive{}}
	prop := func(seed uint64, budgetRaw uint8) bool {
		budget := 40 + int(budgetRaw)%(40*7) // within [n, n*8]
		for _, s := range strategies {
			counts, err := s.Copies(cat, budget, 8, rng.New(seed))
			if err != nil {
				// Partial predictive legitimately rejects tiny budgets.
				if _, ok := s.(PartialPredictive); ok {
					continue
				}
				return false
			}
			if sum(counts) != budget {
				return false
			}
			for _, c := range counts {
				if c < 1 || c > 8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

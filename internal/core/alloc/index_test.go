package alloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func popAll(x *Index) []Entry {
	var out []Entry
	for x.Len() > 0 {
		out = append(out, x.Pop())
	}
	return out
}

// TestPopMatchesSort is the determinism contract: lazy heap selection
// must yield exactly the order a full sort produces, ascending and
// descending, including duplicate keys broken by id.
func TestPopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, desc := range []bool{false, true} {
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(200)
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(rng.Intn(20)) // force duplicate keys
			}

			var a, b Index
			a.Reset(desc)
			b.Reset(desc)
			for i, k := range keys {
				a.Add(k, int64(i), int32(i))
				b.Add(k, int64(i), int32(i))
			}
			a.Init()
			got := popAll(&a)
			want := slices.Clone(b.Sort())
			if !slices.Equal(got, want) {
				t.Fatalf("desc=%v n=%d: pop order != sort order\n got %v\nwant %v", desc, n, got, want)
			}
		}
	}
}

func TestPartialPopRestAll(t *testing.T) {
	var x Index
	x.Reset(false)
	for i := 0; i < 10; i++ {
		x.Add(float64(10-i), int64(i), int32(i))
	}
	x.Init()
	popped := []Entry{x.Pop(), x.Pop(), x.Pop()}
	if popped[0].Key != 1 || popped[1].Key != 2 || popped[2].Key != 3 {
		t.Fatalf("pop prefix = %v", popped)
	}
	if x.Len() != 7 || len(x.Rest()) != 7 {
		t.Fatalf("rest = %d, want 7", len(x.Rest()))
	}
	if len(x.All()) != 10 {
		t.Fatalf("all = %d, want 10", len(x.All()))
	}
	if got, want := x.Popped(), []Entry{popped[2], popped[1], popped[0]}; !slices.Equal(got, want) {
		t.Fatalf("Popped() = %v, want the pops most recent first %v", got, want)
	}
	// Rest plus popped must cover every id exactly once.
	seen := map[int64]bool{}
	for _, e := range x.All() {
		if seen[e.ID] {
			t.Fatalf("duplicate id %d", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 10 {
		t.Fatalf("cover = %d ids", len(seen))
	}
}

func TestResetReuses(t *testing.T) {
	var x Index
	x.Reset(false)
	x.Add(5, 1, 0)
	x.Add(3, 2, 1)
	x.Init()
	x.Pop()
	x.Reset(true)
	if x.Len() != 0 || len(x.All()) != 0 {
		t.Fatalf("reset left %d/%d entries", x.Len(), len(x.All()))
	}
	x.Add(1, 1, 0)
	x.Add(2, 2, 1)
	x.Init()
	if got := x.Pop(); got.Key != 2 {
		t.Fatalf("descending pop = %v", got)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var x Index
	x.Reset(false)
	if x.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	x.Init() // must not panic on empty
	x.Add(1, 7, 3)
	x.Init()
	if got := x.Pop(); got != (Entry{Key: 1, ID: 7, Pos: 3}) {
		t.Fatalf("single pop = %v", got)
	}
	if x.Len() != 0 {
		t.Fatal("not drained")
	}
}

// feedEps mirrors the engine's dataEps: the spare feed stops once no
// more than this is left.
const feedEps = 1e-6

// feedWalk is the engine's ordered spare feed over one order: while
// more than feedEps is left, each entry is granted min(weight, left),
// clamped at zero. It stores the grants by position and returns what
// is left.
func feedWalk(order []Weighted, budget float64, grants []float64) float64 {
	avail := budget
	for _, w := range order {
		if avail <= feedEps {
			break
		}
		extra := w.Weight
		if extra > avail {
			extra = avail
		}
		if extra < 0 {
			extra = 0
		}
		grants[w.Pos] = extra
		avail -= extra
	}
	return avail
}

// beyond reports whether key is outside px's Reach.
func beyond(px *Prefix, key float64) bool {
	lo, hi := px.Reach()
	return key < lo || key > hi
}

// TestPrefixMatchesSortedFeed is Prefix's contract: feeding its drained
// entries grants bit for bit what feeding the full sorted order does —
// over duplicate keys, +Inf and zero weights, budgets within a few ulps
// of a sum of weights, both directions and every insertion order — and
// Reach never excludes a key the sorted feed grants to.
func TestPrefixMatchesSortedFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var px Prefix
	var all Index
	for trial := 0; trial < 3000; trial++ {
		desc := trial%2 == 1
		n := 1 + rng.Intn(120)
		cands := make([]Weighted, n)
		for i, id := range rng.Perm(n) {
			w := 0.5 + 29.5*rng.Float64()
			switch rng.Intn(20) {
			case 0:
				w = math.Inf(1)
			case 1:
				w = 0 // a saturated client: never kept
			case 2:
				w = 1e-7 // below the feed's epsilon
			}
			// Few distinct keys force ties, broken by id.
			key := float64(rng.Intn(1+n/4)) * 37.5
			cands[i] = Weighted{Entry: Entry{Key: key, ID: int64(id), Pos: int32(i)}, Weight: w}
		}
		all.Reset(desc)
		for _, c := range cands {
			all.Add(c.Key, c.ID, c.Pos)
		}
		weightOf := make([]float64, n)
		for _, c := range cands {
			weightOf[c.Pos] = c.Weight
		}
		sorted := make([]Weighted, 0, n)
		for _, e := range all.Sort() {
			sorted = append(sorted, Weighted{Entry: e, Weight: weightOf[e.Pos]})
		}

		// The budget: a random fraction of the finite total, or the sum
		// of the first j weights in feed order (the point where the feed
		// runs out exactly) nudged by a few ulps, or by a little more or
		// less than feedEps, either way.
		var budget float64
		if rng.Intn(3) == 0 {
			total := 0.0
			for _, c := range cands {
				if !math.IsInf(c.Weight, 1) {
					total += c.Weight
				}
			}
			budget = (0.01 + 1.2*rng.Float64()) * total
		} else {
			j := rng.Intn(n + 1)
			for _, s := range sorted[:j] {
				if !math.IsInf(s.Weight, 1) {
					budget += s.Weight
				}
			}
			budget += []float64{0, 0, 0, 0.5e-6, -0.5e-6, 2e-6, -2e-6, 1e-3, -1e-3}[rng.Intn(9)]
			for ulps := rng.Intn(7) - 3; ulps != 0; {
				if ulps > 0 {
					budget = math.Nextafter(budget, math.Inf(1))
					ulps--
				} else {
					budget = math.Nextafter(budget, math.Inf(-1))
					ulps++
				}
			}
		}

		want := make([]float64, n)
		wantLeft := feedWalk(sorted, budget, want)

		for _, order := range []string{"random", "ascending", "descending"} {
			ins := slices.Clone(cands)
			switch order {
			case "random":
				rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
			case "ascending":
				copy(ins, sorted)
			case "descending":
				copy(ins, sorted)
				slices.Reverse(ins)
			}
			px.Reset(desc, budget)
			for _, c := range ins {
				if beyond(&px, c.Key) {
					if want[c.Pos] > 0 {
						t.Fatalf("trial %d desc=%v %s: Reach excluded key %v (id %d), which the sorted feed grants %v",
							trial, desc, order, c.Key, c.ID, want[c.Pos])
					}
					continue
				}
				px.Add(c.Key, c.ID, c.Pos, c.Weight)
			}
			for _, c := range cands {
				if want[c.Pos] > 0 && beyond(&px, c.Key) {
					t.Fatalf("trial %d desc=%v %s: after the adds Reach excludes key %v, which the sorted feed grants",
						trial, desc, order, c.Key)
				}
			}
			drained := px.Drain()
			if !slices.IsSortedFunc(drained, func(a, b Weighted) int {
				if before(a.Entry, b.Entry, desc) {
					return -1
				}
				return 1
			}) {
				t.Fatalf("trial %d desc=%v %s: drain not in feed order: %v", trial, desc, order, drained)
			}
			got := make([]float64, n)
			gotLeft := feedWalk(drained, budget, got)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d desc=%v %s budget=%v: pos %d granted %v, sorted feed %v (kept %d of %d)",
						trial, desc, order, budget, i, got[i], want[i], len(drained), n)
				}
			}
			if math.Float64bits(gotLeft) != math.Float64bits(wantLeft) {
				t.Fatalf("trial %d desc=%v %s: %v left, sorted feed %v", trial, desc, order, gotLeft, wantLeft)
			}
		}
	}
}

// TestPrefixBoundsKept pins the point of Prefix: with unit weights and
// a budget of 3 it keeps just the three head entries, whatever the
// insertion order, and Reach excludes every key behind them; an
// unbounded weight ends the prefix.
func TestPrefixBoundsKept(t *testing.T) {
	var px Prefix
	px.Reset(false, 3)
	for _, k := range []int{9, 4, 7, 1, 8, 2, 6, 0, 5, 3} {
		if beyond(&px, float64(k)) {
			continue
		}
		px.Add(float64(k), int64(k), int32(k), 1)
		if px.Len() > 3 {
			t.Fatalf("kept %d entries after adding %d, want ≤ 3", px.Len(), k)
		}
	}
	if !beyond(&px, 2.5) || beyond(&px, 2) || beyond(&px, 1.5) {
		t.Fatalf("beyond Reach: 2.5=%v 2=%v 1.5=%v, want true false false", beyond(&px, 2.5), beyond(&px, 2), beyond(&px, 1.5))
	}
	got := px.Drain()
	want := []Weighted{{Entry{0, 0, 0}, 1}, {Entry{1, 1, 1}, 1}, {Entry{2, 2, 2}, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}

	// An unbounded weight covers any budget: nothing behind it is kept.
	px.Reset(false, 3)
	px.Add(5, 5, 5, 1)
	px.Add(1, 1, 1, math.Inf(1))
	px.Add(3, 3, 3, 1)
	px.Add(0, 0, 0, 1)
	if got := px.Drain(); len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("drain with an unbounded weight = %v, want ids 0, 1", got)
	}
}

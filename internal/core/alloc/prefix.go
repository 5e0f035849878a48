package alloc

import "math"

// Weighted is a Prefix entry: a candidate and its weight, the most of
// the budget it can absorb (+Inf when unbounded).
type Weighted struct {
	Entry
	Weight float64
}

// Prefix selects the head of a feed order that a budget can reach. A
// feed walks the candidates in order and grants each min(weight, what
// is left) until the budget runs out, so a candidate whose predecessors'
// weights already cover the budget receives nothing. Prefix keeps only
// the candidates that can still receive something: a max-heap by feed
// order whose root — the last kept candidate — is dropped whenever the
// weight ahead of it covers the budget. The heap therefore never holds
// more than the fed candidates plus the one added since the last drop.
//
// The zero value is ready to use. Cycle: Reset, then for each
// candidate a Reach test (to skip one Add would reject without
// computing its weight) and Add, then Drain.
type Prefix struct {
	heap   []Weighted // max-heap by feed order: heap[0] is kept last
	budget float64
	sum    float64 // sum of the finite weights in heap
	inf    int     // number of +Inf weights in heap
	desc   bool
}

// Reset empties the prefix, reusing its storage, for a feed of budget
// in ascending Key order (descending when descending; ID ties stay
// ascending either way).
func (x *Prefix) Reset(descending bool, budget float64) {
	x.heap = x.heap[:0]
	x.budget = budget
	x.sum = 0
	x.inf = 0
	x.desc = descending
}

// Len returns the number of kept candidates.
func (x *Prefix) Len() int { return len(x.heap) }

// covered reports whether the kept weights cover the budget: a
// candidate behind every kept one would receive nothing.
func (x *Prefix) covered() bool {
	return len(x.heap) > 0 && (x.inf > 0 || x.sum >= x.budget)
}

// Reach returns the range of keys Add can still keep: a candidate
// whose key is outside [lo, hi] is rejected whatever its id and weight,
// because the kept weights cover the budget and its key is strictly
// behind the root's. The range is unbounded until they cover it, and a
// key equal to the root's is inside, leaving the id comparison to Add.
// Only Add changes it, so a caller can hold the bounds in locals
// between Adds.
func (x *Prefix) Reach() (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if !x.covered() {
		return lo, hi
	}
	if x.desc {
		return x.heap[0].Key, hi
	}
	return lo, x.heap[0].Key
}

// Add offers a candidate. One with no weight (≤ 0) can take no grant
// and is never kept, and one behind a covered prefix is rejected.
// Otherwise the candidate is kept, and then the root is dropped for as
// long as the weight ahead of it covers the budget.
func (x *Prefix) Add(key float64, id int64, pos int32, weight float64) {
	if !(weight > 0) {
		return
	}
	w := Weighted{Entry: Entry{Key: key, ID: id, Pos: pos}, Weight: weight}
	if x.covered() && before(x.heap[0].Entry, w.Entry, x.desc) {
		return
	}
	x.heap = append(x.heap, w)
	x.siftUp(len(x.heap) - 1)
	if math.IsInf(weight, 1) {
		x.inf++
	} else {
		x.sum += weight
	}
	for len(x.heap) > 0 && x.aheadOfRoot() >= x.budget {
		x.dropRoot()
	}
}

// aheadOfRoot returns the summed weight of every kept candidate but
// the root. Only the kept ones matter: a dropped candidate was behind
// weight covering the budget, and so is everything behind it.
func (x *Prefix) aheadOfRoot() float64 {
	w := x.heap[0].Weight
	if math.IsInf(w, 1) {
		if x.inf > 1 {
			return math.Inf(1)
		}
		return x.sum
	}
	if x.inf > 0 {
		return math.Inf(1)
	}
	return x.sum - w
}

func (x *Prefix) dropRoot() {
	if w := x.heap[0].Weight; math.IsInf(w, 1) {
		x.inf--
	} else {
		x.sum -= w
	}
	last := len(x.heap) - 1
	x.heap[0] = x.heap[last]
	x.heap = x.heap[:last]
	x.siftDown(0, last)
}

// Drain orders the kept candidates in feed order and returns them,
// popping the heap back to front. The slice aliases the prefix: Reset
// it before the next Add.
func (x *Prefix) Drain() []Weighted {
	for n := len(x.heap) - 1; n > 0; n-- {
		x.heap[0], x.heap[n] = x.heap[n], x.heap[0]
		x.siftDown(0, n)
	}
	return x.heap
}

func (x *Prefix) siftUp(i int) {
	h := x.heap
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[p].Entry, h[i].Entry, x.desc) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the heap below i within h[:n].
func (x *Prefix) siftDown(i, n int) {
	h := x.heap
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && before(h[l].Entry, h[r].Entry, x.desc) {
			c = r
		}
		if !before(h[i].Entry, h[c].Entry, x.desc) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

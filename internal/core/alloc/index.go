// Package alloc is the index layer beneath the engine's bandwidth
// allocators: reusable, pointer-free ordered indexes over per-server
// allocation candidates.
//
// The engine's allocation policies (EFTF, LFTF, intermittent) feed
// bandwidth to candidates in a deterministic total order keyed by a
// float64 quantity (remaining volume, buffer level) with the request id
// breaking ties. Two indexes share that order (one comparator, before):
//
//   - Prefix serves the hot spare feed. Under production load only a
//     short prefix of the order is ever fed — the spare bandwidth runs
//     out long before the candidate list does — so Prefix keeps just
//     the entries whose predecessors' headroom does not yet cover the
//     budget, in a max-heap bounded by that prefix. Feeding m of k
//     candidates costs O(k + I log m), with I ≤ k the number of
//     insertions (a candidate behind a covered prefix is rejected by one
//     comparison, before the caller loads anything else about it).
//   - Index holds every candidate: Init heapifies them in O(k), Pop
//     yields them lazily in feed order, Rest returns the un-popped rest
//     unordered and Popped the popped ones in reverse pop order (the
//     intermittent feed, which serves an unknown number of streams and
//     pauses the rest once its bandwidth runs out; its audit report
//     reads both afterwards), All keeps them for order-free passes
//     (even split, and the skipped candidates an audited spare feed
//     reports), and Sort orders them all (the reference order the tests
//     check Pop and the feeds against).
//
// Entries carry a position into the server's active slice instead of a
// pointer, so a retained scratch index never pins finished requests
// against the garbage collector.
//
// Determinism contract: Pop yields entries in exactly ascending
// (Key, ID) order — or descending Key with ascending ID ties when the
// index was Reset(true) — which is the same total order Sort produces,
// and Prefix.Drain yields the head of that same order. The engine
// relies on this to keep its feeds bit-identical to a walk of the fully
// sorted order; TestPopMatchesSort and TestPrefixMatchesSortedFeed pin
// it.
package alloc

import "slices"

// Entry is one allocation candidate: a sort key, the request id that
// breaks ties deterministically, and the candidate's position in its
// server's active slice.
type Entry struct {
	Key float64
	ID  int64
	Pos int32
}

// Index is a reusable candidate index. The zero value is ready to use.
// Typical cycle: Reset, Add each candidate, then either Init+Pop (lazy
// ordered selection) or Sort (the full order, as a test reference).
type Index struct {
	entries []Entry
	n       int // live heap length; entries[n:len] are popped
	desc    bool
}

// Reset empties the index, reusing its storage. descending selects
// largest-Key-first order (ID ties stay ascending).
func (x *Index) Reset(descending bool) {
	x.entries = x.entries[:0]
	x.n = 0
	x.desc = descending
}

// Add appends a candidate. Call Init before the first Pop.
func (x *Index) Add(key float64, id int64, pos int32) {
	x.entries = append(x.entries, Entry{Key: key, ID: id, Pos: pos})
	x.n = len(x.entries)
}

// Len returns the number of un-popped candidates.
func (x *Index) Len() int { return x.n }

// before reports whether a precedes b in feed order: ascending Key
// (descending when desc), ties broken by ascending ID. Index and Prefix
// both order by it.
func before(a, b Entry, desc bool) bool {
	if a.Key != b.Key {
		if desc {
			return a.Key > b.Key
		}
		return a.Key < b.Key
	}
	return a.ID < b.ID
}

// Init heapifies the added candidates in O(k). Must be called after the
// last Add and before the first Pop; Sort does not require it.
func (x *Index) Init() {
	for i := x.n/2 - 1; i >= 0; i-- {
		x.siftDown(i)
	}
}

// Pop removes and returns the next candidate in feed order. The popped
// entry remains reachable via All and Popped. Panics when empty.
func (x *Index) Pop() Entry {
	top := x.entries[0]
	x.n--
	x.entries[0] = x.entries[x.n]
	x.entries[x.n] = top
	if x.n > 1 {
		x.siftDown(0)
	}
	return top
}

func (x *Index) siftDown(i int) {
	e := x.entries
	for {
		l := 2*i + 1
		if l >= x.n {
			return
		}
		c := l
		if r := l + 1; r < x.n && before(e[r], e[l], x.desc) {
			c = r
		}
		if !before(e[c], e[i], x.desc) {
			return
		}
		e[i], e[c] = e[c], e[i]
		i = c
	}
}

// Rest returns the un-popped candidates in unspecified order. Use only
// for order-independent passes. The slice aliases the index; it is
// invalidated by Reset, Add, Pop, and Sort.
func (x *Index) Rest() []Entry { return x.entries[:x.n] }

// Popped returns the popped candidates, most recently popped first:
// read backwards, it is the order Pop yielded them in. Same aliasing
// caveats as Rest.
func (x *Index) Popped() []Entry { return x.entries[x.n:] }

// All returns every added candidate — popped and un-popped — in
// unspecified order. Same aliasing caveats as Rest.
func (x *Index) All() []Entry { return x.entries }

// Sort orders all candidates in feed order and returns them. After
// Sort the index should not be popped (use the returned slice).
func (x *Index) Sort() []Entry {
	slices.SortFunc(x.entries, func(a, b Entry) int {
		switch {
		case before(a, b, x.desc):
			return -1
		case before(b, a, x.desc):
			return 1
		default:
			return 0
		}
	})
	x.n = len(x.entries)
	return x.entries
}

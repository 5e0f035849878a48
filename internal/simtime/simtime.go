// Package simtime provides the discrete-event substrate: a future event
// list ordered by simulated time with deterministic FIFO tie-breaking.
//
// The simulator is a fluid-flow discrete-event simulation: between
// events every transmission proceeds at a constant rate, and the engine
// schedules the next instant at which any rate must change (an arrival,
// a transmission finishing, a client buffer filling, a failure). The
// event list is the only data structure whose ordering affects results,
// so it breaks time ties by insertion order to keep runs reproducible.
package simtime

// Queue is a min-heap of events carrying payloads of type T.
// The zero value is an empty queue ready for use.
//
// The heap is 4-ary rather than binary: sift-down — the cost of every
// Pop — visits a quarter as many levels at the price of three extra
// comparisons per level, which wins on modern hardware because each
// level is a dependent cache miss while the sibling comparisons are
// not. Arity is invisible in the results: (time, seq) is a strict total
// order (seq is unique), and a heap of any arity pops a strict total
// order in exactly sorted order, so event delivery is bit-identical to
// the binary heap's.
type Queue[T any] struct {
	items []item[T]
	seq   uint64
}

// arity is the heap's branching factor.
const arity = 4

type item[T any] struct {
	time    float64
	seq     uint64
	payload T
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.items) }

// Push schedules payload v at time t. Events at equal times are
// delivered in the order they were pushed.
func (q *Queue[T]) Push(t float64, v T) {
	q.seq++
	q.items = append(q.items, item[T]{time: t, seq: q.seq, payload: v})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the earliest event.
// ok is false when the queue is empty.
func (q *Queue[T]) Pop() (t float64, v T, ok bool) {
	if len(q.items) == 0 {
		var zero T
		return 0, zero, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	// Clear the vacated slot so payloads don't pin garbage.
	var zero item[T]
	q.items[last] = zero
	q.items = q.items[:last]
	if len(q.items) > 0 {
		q.down(0)
	}
	return top.time, top.payload, true
}

// Reset empties the queue, retaining its backing storage for reuse.
func (q *Queue[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.seq = 0
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / arity
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		first := arity*i + 1
		if first >= n {
			return
		}
		smallest := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(c, smallest) {
				smallest = c
			}
		}
		if !q.less(smallest, i) {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

package simtime

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Errorf("Len() = %d, want 0", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop() on empty queue reported ok")
	}
}

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for i, w := range want {
		tm, v, ok := q.Pop()
		if !ok || v != w || tm != float64(i+1) {
			t.Fatalf("pop %d = (%v, %q, %v), want (%d, %q, true)", i, tm, v, ok, i+1, w)
		}
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 50; i++ {
		q.Push(7, i)
	}
	q.Push(1, 999)
	if _, v, _ := q.Pop(); v != 999 {
		t.Fatalf("earliest event not popped first, got %d", v)
	}
	for i := 0; i < 50; i++ {
		_, v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("tie pop %d = %d, want insertion order", i, v)
		}
	}
}

func TestReset(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 10; i++ {
		q.Push(float64(i), i)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Errorf("Len() after Reset = %d", q.Len())
	}
	q.Push(1, 42)
	if _, v, ok := q.Pop(); !ok || v != 42 {
		t.Error("queue unusable after Reset")
	}
}

// Property: for any sequence of pushes, pops come out sorted by time,
// and equal times preserve insertion order.
func TestHeapProperty(t *testing.T) {
	prop := func(timesRaw []uint16) bool {
		var q Queue[int]
		times := make([]float64, len(timesRaw))
		for i, r := range timesRaw {
			times[i] = float64(r % 100) // force plenty of ties
			q.Push(times[i], i)
		}
		type popped struct {
			t   float64
			seq int
		}
		var out []popped
		for {
			tm, v, ok := q.Pop()
			if !ok {
				break
			}
			out = append(out, popped{tm, v})
		}
		if len(out) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(out, func(i, j int) bool {
			if out[i].t != out[j].t {
				return out[i].t < out[j].t
			}
			return out[i].seq < out[j].seq
		}) {
			return false
		}
		// The multiset of times must be preserved.
		sort.Float64s(times)
		for i, p := range out {
			if p.t != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved pushes and pops never return an element earlier
// than one already returned.
func TestInterleavedProperty(t *testing.T) {
	prop := func(ops []int16) bool {
		var q Queue[int]
		last := -1.0
		pending := 0
		for i, op := range ops {
			if op >= 0 {
				tm := float64(op)
				if tm < last {
					tm = last // future events only, like the simulator
				}
				q.Push(tm, i)
				pending++
			} else if pending > 0 {
				tm, _, ok := q.Pop()
				if !ok || tm < last {
					return false
				}
				last = tm
				pending--
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLargeDrain(t *testing.T) {
	var q Queue[int]
	const n = 10000
	for i := 0; i < n; i++ {
		q.Push(float64((i*2654435761)%997), i)
	}
	prev := -1.0
	count := 0
	for {
		tm, _, ok := q.Pop()
		if !ok {
			break
		}
		if tm < prev {
			t.Fatalf("out of order: %v after %v", tm, prev)
		}
		prev = tm
		count++
	}
	if count != n {
		t.Errorf("drained %d events, want %d", count, n)
	}
}

// --- benchmarks (baselines in BENCH_queue.json) ---

// benchmarkPushPopCycle measures the engine's pop-then-push cycle on a
// queue held at n events.
func benchmarkPushPopCycle(b *testing.B, n int) {
	var q Queue[int]
	// Pseudo-random but deterministic times, like the event list's mix
	// of near-term wakes and far-future arrivals.
	tm := func(i int) float64 { return float64((i * 2654435761) % 99991) }
	for i := 0; i < n; i++ {
		q.Push(tm(i), i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, v, _ := q.Pop()
		q.Push(t+float64(v%13), v)
	}
}

func BenchmarkQueuePushPop1e3(b *testing.B) { benchmarkPushPopCycle(b, 1_000) }
func BenchmarkQueuePushPop1e5(b *testing.B) { benchmarkPushPopCycle(b, 100_000) }

func BenchmarkQueueFill1e3(b *testing.B) { benchmarkFill(b, 1_000) }
func BenchmarkQueueFill1e5(b *testing.B) { benchmarkFill(b, 100_000) }

func benchmarkFill(b *testing.B, n int) {
	var q Queue[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Reset()
		for j := 0; j < n; j++ {
			q.Push(float64((j*2654435761)%99991), j)
		}
	}
}

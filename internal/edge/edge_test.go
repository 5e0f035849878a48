package edge

import (
	"reflect"
	"testing"
)

func TestRegistry(t *testing.T) {
	want := []string{PolicyLRU, PolicyStaticZipf}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, n := range want {
		if !Has(n) {
			t.Fatalf("Has(%q) = false", n)
		}
	}
	if Has("no-such-policy") {
		t.Fatal("Has(no-such-policy) = true")
	}
	if got := New("").Name(); got != PolicyStaticZipf {
		t.Fatalf("New(\"\") resolved %q, want the default %q", got, PolicyStaticZipf)
	}
	if got := New(PolicyLRU).Name(); got != PolicyLRU {
		t.Fatalf("New(lru) resolved %q", got)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown New", func() { New("no-such-policy") })
}

func TestGreedyFill(t *testing.T) {
	prefix := []float64{40, 30, 0, 25, 50, 10}
	cached := make([]bool, len(prefix))
	used := GreedyFill(prefix, 100, cached)
	// 40 + 30 fit; video 2 has no prefix; 25 fits (95); 50 does not;
	// 10 does not (95 + 10 > 100).
	want := []bool{true, true, false, true, false, false}
	if !reflect.DeepEqual(cached, want) {
		t.Fatalf("cached = %v, want %v", cached, want)
	}
	if used != 95 {
		t.Fatalf("used = %g, want 95", used)
	}
}

func TestStaticZipf(t *testing.T) {
	p := New(PolicyStaticZipf)
	p.Reset([]float64{40, 30, 25, 50}, 70)
	for i, want := range []bool{true, true, false, false} {
		if got := p.Hit(i); got != want {
			t.Fatalf("Hit(%d) = %t, want %t", i, got, want)
		}
		// Static content: a second probe answers identically.
		if got := p.Hit(i); got != want {
			t.Fatalf("second Hit(%d) = %t, want %t", i, got, want)
		}
	}
	// Reset with a bigger budget re-fills.
	p.Reset([]float64{40, 30, 25, 50}, 1000)
	for i := range 4 {
		if !p.Hit(i) {
			t.Fatalf("after large-budget Reset, Hit(%d) = false", i)
		}
	}
}

func TestLRU(t *testing.T) {
	p := New(PolicyLRU)
	p.Reset([]float64{10, 10, 10, 100}, 20)
	if p.Hit(0) {
		t.Fatal("cold cache reported a hit")
	}
	if !p.Hit(0) {
		t.Fatal("miss did not admit video 0")
	}
	p.Hit(1)       // admit 1 → cache {0, 1}, budget full
	if !p.Hit(0) { // refresh 0's recency
		t.Fatal("video 0 evicted early")
	}
	p.Hit(2) // admit 2 → evicts LRU = 1
	if !p.Hit(0) {
		t.Fatal("video 0 evicted; LRU order broken")
	}
	if p.Hit(1) {
		t.Fatal("video 1 should have been evicted")
	}
	// Video 3's prefix exceeds the whole budget: never cached, and it
	// must not wipe the cache trying.
	if p.Hit(3) {
		t.Fatal("oversized prefix reported a hit")
	}
	if p.Hit(3) {
		t.Fatal("oversized prefix was admitted")
	}
	// 1's re-probe above evicted... verify state still consistent: 0
	// was most recent before the 3-probes and 1 was re-admitted by its
	// probe, evicting 2.
	if !p.Hit(1) {
		t.Fatal("video 1 not re-admitted by its miss")
	}
	if p.Hit(2) {
		t.Fatal("video 2 should have been evicted by 1's re-admission")
	}
}

func TestLRUResetClears(t *testing.T) {
	p := New(PolicyLRU)
	p.Reset([]float64{10, 10}, 20)
	p.Hit(0)
	p.Hit(1)
	p.Reset([]float64{10, 10}, 20)
	if p.Hit(0) || p.Hit(1) {
		t.Fatal("Reset did not clear cached content")
	}
}

func TestHitDoesNotAllocate(t *testing.T) {
	prefix := make([]float64, 1024)
	for i := range prefix {
		prefix[i] = 10
	}
	for _, name := range Names() {
		p := New(name)
		p.Reset(prefix, 512*10)
		n := testing.AllocsPerRun(200, func() {
			for v := 0; v < len(prefix); v += 7 {
				p.Hit(v)
			}
		})
		if n != 0 {
			t.Errorf("%s: Hit allocates %.1f per run, want 0", name, n)
		}
	}
}

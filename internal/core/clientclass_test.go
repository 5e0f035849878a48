package core

import (
	"testing"

	"semicont/internal/workload"
)

func TestClientClassValidation(t *testing.T) {
	base := Config{
		ServerBandwidth: []float64{100}, ViewRate: 3,
		Workahead: true, BufferCapacity: 600,
	}
	cases := []struct {
		name    string
		classes []ClientClass
		ok      bool
	}{
		{"valid mix", []ClientClass{{Weight: 1, BufferCapacity: 600, ReceiveCap: 30}, {Weight: 1}}, true},
		{"negative weight", []ClientClass{{Weight: -1}}, false},
		{"negative buffer", []ClientClass{{Weight: 1, BufferCapacity: -5}}, false},
		{"receive below view", []ClientClass{{Weight: 1, ReceiveCap: 1}}, false},
		{"all zero weight", []ClientClass{{Weight: 0}, {Weight: 0}}, false},
	}
	for _, tc := range cases {
		cfg := base
		cfg.ClientClasses = tc.classes
		err := cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSingleClassMatchesHomogeneous(t *testing.T) {
	// A one-class population with the same buffer/receive parameters
	// must behave identically to the homogeneous configuration.
	build := func(classes []ClientClass) *Metrics {
		cat := fixedCatalog(t, 2, 900)
		cfg := Config{
			ServerBandwidth: []float64{30, 30},
			ViewRate:        3,
			Workahead:       true,
			BufferCapacity:  540,
			ReceiveCap:      30,
			ClientClasses:   classes,
		}
		reqs := make([]workload.Request, 0, 40)
		for i := 0; i < 40; i++ {
			reqs = append(reqs, workload.Request{Arrival: float64(i * 30), Video: i % 2})
		}
		e := newTestEngine(t, cfg, cat, [][]int{{0, 1}, {0, 1}}, reqs)
		return run(t, e, 4000)
	}
	homog := build(nil)
	oneClass := build([]ClientClass{{Weight: 1, BufferCapacity: 540, ReceiveCap: 30}})
	if *homog != *oneClass {
		t.Errorf("one-class mix diverged from homogeneous:\n%+v\n%+v", homog, oneClass)
	}
}

func TestAllThinClientsDisableStagingBenefit(t *testing.T) {
	// Every client in the "thin" class (no buffer): behavior matches a
	// no-buffer homogeneous run even though Workahead is on.
	cat := fixedCatalog(t, 1, 1200)
	mkCfg := func(classes []ClientClass, buf float64) Config {
		return Config{
			ServerBandwidth: []float64{3.5},
			ViewRate:        3,
			Workahead:       true,
			BufferCapacity:  buf,
			ReceiveCap:      0,
			ClientClasses:   classes,
		}
	}
	reqs := []workload.Request{
		{Arrival: 0, Video: 0},
		{Arrival: 1100, Video: 0}, // admitted only if the first finished early
	}
	// Thin clients: no early finish, second arrival rejected.
	e := newTestEngine(t, mkCfg([]ClientClass{{Weight: 1, BufferCapacity: 0}}, 1e9), cat, [][]int{{0}}, reqs)
	m := run(t, e, 2000)
	if m.Accepted != 1 || m.Rejected != 1 {
		t.Fatalf("thin clients: accepted=%d rejected=%d, want 1/1", m.Accepted, m.Rejected)
	}
	// Disk-ful clients: early finish frees the slot.
	e = newTestEngine(t, mkCfg([]ClientClass{{Weight: 1, BufferCapacity: 1e9}}, 1e9), cat, [][]int{{0}}, reqs)
	m = run(t, e, 2000)
	if m.Accepted != 2 {
		t.Fatalf("disk clients: accepted=%d, want 2", m.Accepted)
	}
}

func TestMixedClassesDeterministic(t *testing.T) {
	build := func() *Metrics {
		cat := fixedCatalog(t, 2, 900)
		cfg := Config{
			ServerBandwidth: []float64{30},
			ViewRate:        3,
			Workahead:       true,
			BufferCapacity:  540,
			ReceiveCap:      30,
			ClientSeed:      99,
			ClientClasses: []ClientClass{
				{Weight: 3, BufferCapacity: 540, ReceiveCap: 30},
				{Weight: 1}, // thin
			},
		}
		reqs := make([]workload.Request, 0, 30)
		for i := 0; i < 30; i++ {
			reqs = append(reqs, workload.Request{Arrival: float64(i * 40), Video: i % 2})
		}
		e := newTestEngine(t, cfg, cat, [][]int{{0}, {0}}, reqs)
		return run(t, e, 4000)
	}
	a, b := build(), build()
	if *a != *b {
		t.Errorf("mixed-class runs with equal seeds diverged")
	}
}

func TestClassDrawRespectsWeights(t *testing.T) {
	// With a 3:1 weight ratio over many admissions, roughly 3/4 of the
	// requests should carry the disk class's buffer. Observe via
	// request snapshots mid-run.
	cat := fixedCatalog(t, 1, 7200) // long videos so requests persist
	cfg := Config{
		// 400 slots for 200 streams: 600 Mb/s of spare workahead, which
		// the 6 Mb/s per-client cap spreads across every disk client.
		ServerBandwidth: []float64{1200},
		ViewRate:        3,
		Workahead:       true,
		BufferCapacity:  100,
		ReceiveCap:      0,
		ClientSeed:      7,
		ClientClasses: []ClientClass{
			{Weight: 3, BufferCapacity: 100000, ReceiveCap: 6},
			{Weight: 1, BufferCapacity: 0},
		},
	}
	reqs := make([]workload.Request, 0, 200)
	for i := 0; i < 200; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i), Video: 0})
	}
	e := newTestEngine(t, cfg, cat, [][]int{{0}}, reqs)
	if err := e.Start(4000); err != nil {
		t.Fatal(err)
	}
	for e.Now() < 250 && e.Step() {
	}
	snaps := requestsInFlight(e)
	if len(snaps) < 150 {
		t.Fatalf("only %d in-flight requests", len(snaps))
	}
	buffered := 0
	for _, r := range snaps {
		if r.Buffer > 0 {
			buffered++
		}
	}
	frac := float64(buffered) / float64(len(snaps))
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("buffered fraction = %v, want ≈0.75 (weights 3:1)", frac)
	}
}

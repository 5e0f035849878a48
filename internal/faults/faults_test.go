package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		servers int
		ok      bool
	}{
		{"zero value", Config{}, 4, true},
		{"stochastic", Config{MTBFHours: 10, MTTRHours: 1}, 4, true},
		{"mtbf without mttr", Config{MTBFHours: 10}, 4, false},
		{"negative mtbf", Config{MTBFHours: -1, MTTRHours: 1}, 4, false},
		{"nan mtbf", Config{MTBFHours: math.NaN(), MTTRHours: 1}, 4, false},
		{"inf mttr", Config{MTBFHours: 1, MTTRHours: math.Inf(1)}, 4, false},
		{"trace", Config{Trace: []Event{
			{AtHours: 1, Server: 0, Kind: KindFail},
			{AtHours: 2, Server: 0, Kind: KindRecover, Cold: true},
		}}, 4, true},
		{"trace and stochastic exclusive", Config{MTBFHours: 10, MTTRHours: 1,
			Trace: []Event{{AtHours: 1, Server: 0, Kind: KindFail}}}, 4, false},
		{"trace server out of range", Config{Trace: []Event{
			{AtHours: 1, Server: 4, Kind: KindFail}}}, 4, false},
		{"trace negative time", Config{Trace: []Event{
			{AtHours: -1, Server: 0, Kind: KindFail}}}, 4, false},
		{"trace out of order", Config{Trace: []Event{
			{AtHours: 2, Server: 0, Kind: KindFail},
			{AtHours: 1, Server: 1, Kind: KindFail},
		}}, 4, false},
		{"trace double fail", Config{Trace: []Event{
			{AtHours: 1, Server: 0, Kind: KindFail},
			{AtHours: 2, Server: 0, Kind: KindFail},
		}}, 4, false},
		{"trace recover while up", Config{Trace: []Event{
			{AtHours: 1, Server: 0, Kind: KindRecover}}}, 4, false},
		{"trace cold fail", Config{Trace: []Event{
			{AtHours: 1, Server: 0, Kind: KindFail, Cold: true}}}, 4, false},
		{"trace unknown kind", Config{Trace: []Event{
			{AtHours: 1, Server: 0, Kind: "explode"}}}, 4, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(tc.servers)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("config %+v validated, want error", tc.cfg)
			}
		})
	}
}

func TestCompileStochastic(t *testing.T) {
	cfg := Config{MTBFHours: 5, MTTRHours: 0.5, Cold: true}
	evs, err := Compile(cfg, 4, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("100 h at MTBF 5 h over 4 servers produced no events")
	}
	if len(evs)%2 != 0 {
		t.Fatalf("%d events: every failure must pair with a recovery", len(evs))
	}
	down := make(map[int]bool)
	prevAt := math.Inf(-1)
	perServer := make(map[int]float64)
	for i, ev := range evs {
		if ev.At < prevAt {
			t.Fatalf("event %d at %g before predecessor at %g", i, ev.At, prevAt)
		}
		prevAt = ev.At
		if ev.At < perServer[ev.Server] {
			t.Fatalf("event %d out of order for server %d", i, ev.Server)
		}
		perServer[ev.Server] = ev.At
		if ev.Recover {
			if !down[ev.Server] {
				t.Fatalf("event %d recovers server %d while up", i, ev.Server)
			}
			if !ev.Cold {
				t.Errorf("event %d: Cold config must mark recoveries cold", i)
			}
			down[ev.Server] = false
		} else {
			if down[ev.Server] {
				t.Fatalf("event %d fails server %d while down", i, ev.Server)
			}
			if ev.At >= 100*3600 {
				t.Fatalf("event %d: failure at %g past the horizon", i, ev.At)
			}
			down[ev.Server] = true
		}
	}
	for s, d := range down {
		if d {
			t.Errorf("server %d left down with no compiled recovery", s)
		}
	}
}

// TestCompileDropsInfiniteEnds checks that a mean repair time near the
// float range, whose ends overflow to +Inf, compiles to begins that
// never end rather than to events the engine cannot schedule.
func TestCompileDropsInfiniteEnds(t *testing.T) {
	cfg := Config{MTBFHours: 5, MTTRHours: 1e308,
		BrownoutMTBFHours: 5, BrownoutMTTRHours: 1e308, BrownoutFraction: 0.5}
	evs, err := Compile(cfg, 4, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("100 h at MTBF 5 h over 4 servers produced no events")
	}
	for i, ev := range evs {
		if ev.Recover || math.IsInf(ev.At, 0) {
			t.Errorf("event %d %+v: want only finite begins", i, ev)
		}
	}
}

// TestCompileDeterministic pins the stream-split contract: the schedule
// is a pure function of (config, servers, horizon, seed), and each
// server's draws are independent of the cluster size.
func TestCompileDeterministic(t *testing.T) {
	cfg := Config{MTBFHours: 2, MTTRHours: 0.25}
	a, err := Compile(cfg, 8, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(cfg, 8, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical inputs compiled to different schedules")
	}
	c, err := Compile(cfg, 9, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	filter := func(evs []Compiled) []Compiled {
		var out []Compiled
		for _, ev := range evs {
			if ev.Server < 8 {
				out = append(out, ev)
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(a), filter(c)) {
		t.Fatal("adding a server perturbed existing servers' fault draws")
	}
	d, err := Compile(cfg, 8, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds compiled to the same schedule")
	}
}

func TestCompileTrace(t *testing.T) {
	cfg := Config{Trace: []Event{
		{AtHours: 0.5, Server: 2, Kind: KindFail},
		{AtHours: 1, Server: 2, Kind: KindRecover, Cold: true},
	}}
	evs, err := Compile(cfg, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Compiled{
		{At: 1800, Server: 2},
		{At: 3600, Server: 2, Recover: true, Cold: true},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("compiled %+v, want %+v", evs, want)
	}
}

func TestParseTrace(t *testing.T) {
	good := []byte(`[
		{"at_hours": 0.5, "server": 1, "kind": "fail"},
		{"at_hours": 1.25, "server": 1, "kind": "recover", "cold": true}
	]`)
	trace, err := ParseTrace(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[1].Cold != true || trace[0].Kind != KindFail {
		t.Fatalf("parsed %+v", trace)
	}

	bad := map[string]string{
		"not json":        `{`,
		"unknown field":   `[{"at_hours": 1, "server": 0, "kind": "fail", "blast_radius": 3}]`,
		"trailing data":   `[] []`,
		"bad kind":        `[{"at_hours": 1, "server": 0, "kind": "melt"}]`,
		"recover first":   `[{"at_hours": 1, "server": 0, "kind": "recover"}]`,
		"negative time":   `[{"at_hours": -1, "server": 0, "kind": "fail"}]`,
		"inf time":        `[{"at_hours": 1e999, "server": 0, "kind": "fail"}]`,
		"order":           `[{"at_hours": 2, "server": 0, "kind": "fail"}, {"at_hours": 1, "server": 1, "kind": "fail"}]`,
		"negative server": `[{"at_hours": 1, "server": -1, "kind": "fail"}]`,
	}
	for name, in := range bad {
		if _, err := ParseTrace([]byte(in)); err == nil {
			t.Errorf("%s: ParseTrace accepted %q", name, in)
		}
	}
}

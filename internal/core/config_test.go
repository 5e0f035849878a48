package core

import (
	"math"
	"testing"
)

func validCoreConfig() Config {
	return Config{
		ServerBandwidth: []float64{100, 100},
		ViewRate:        3,
		BufferCapacity:  720,
		ReceiveCap:      30,
		Workahead:       true,
		Migration:       MigrationConfig{Enabled: true, MaxHops: 1, MaxChain: 1},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := validCoreConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no servers", func(c *Config) { c.ServerBandwidth = nil }},
		{"zero view rate", func(c *Config) { c.ViewRate = 0 }},
		{"server below view rate", func(c *Config) { c.ServerBandwidth[1] = 2 }},
		{"negative buffer", func(c *Config) { c.BufferCapacity = -1 }},
		{"negative receive cap", func(c *Config) { c.ReceiveCap = -1 }},
		{"receive cap below view rate", func(c *Config) { c.ReceiveCap = 2 }},
		{"bad max hops", func(c *Config) { c.Migration.MaxHops = -2 }},
		{"zero max chain", func(c *Config) { c.Migration.MaxChain = 0 }},
		{"negative switch delay", func(c *Config) { c.Migration.SwitchDelay = -1 }},
		{"negative shards", func(c *Config) { c.Shards = -1 }},
		{"shards 2", func(c *Config) { c.Shards = 2 }},
		{"shards 8", func(c *Config) { c.Shards = 8 }},
		{"obsolete allocator name", func(c *Config) { c.Allocator = "minflow-lftf" }},
		{"obsolete allocator beside LFTF spare", func(c *Config) { c.Allocator, c.Spare = AllocMinFlowEFTF, LFTF }},
		{"obsolete allocator beside intermittent", func(c *Config) { c.Allocator, c.Intermittent = AllocMinFlowEFTF, true }},
		{"obsolete planner", func(c *Config) { c.Planner = "direct-only" }},
		{"obsolete default planner", func(c *Config) { c.Planner = "chain-dfs" }},
		{"NaN resume guard", func(c *Config) { c.ResumeGuard = math.NaN() }},
		{"infinite copy rate cap", func(c *Config) { c.Replication.CopyRateCap = math.Inf(1) }},
		{"NaN pause probability", func(c *Config) { c.Interactivity.PauseProb = math.NaN() }},
		{"NaN min pause", func(c *Config) {
			c.Interactivity = InteractivityConfig{PauseProb: 0.5, MinPause: math.NaN(), MaxPause: 60}
		}},
		{"infinite client class weight", func(c *Config) {
			c.ClientClasses = []ClientClass{{Weight: math.Inf(1)}}
		}},
		{"NaN client class receive cap", func(c *Config) {
			c.ClientClasses = []ClientClass{{Weight: 1, ReceiveCap: math.NaN()}}
		}},
		{"negative switch delay with migration off", func(c *Config) {
			c.Migration = MigrationConfig{SwitchDelay: -1}
		}},
		{"negative retry patience with retry off", func(c *Config) { c.Retry.Patience = -1 }},
		{"negative degraded retry interval with degraded playback off", func(c *Config) {
			c.Degraded.RetryInterval = -1
		}},
	}
	for _, tc := range cases {
		cfg := validCoreConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", tc.name)
		}
	}
	// The obsolete Allocator keeps accepting the default scheduler's name.
	cfg := validCoreConfig()
	cfg.Allocator = AllocMinFlowEFTF
	if err := cfg.Validate(); err != nil {
		t.Errorf("Allocator %q with the default scheduler rejected: %v", AllocMinFlowEFTF, err)
	}
	for _, shards := range []int{0, 1} {
		cfg := validCoreConfig()
		cfg.Shards = shards
		if err := cfg.Validate(); err != nil {
			t.Errorf("Shards %d rejected: %v", shards, err)
		}
	}
}

func TestMigrationDisabledSkipsChecks(t *testing.T) {
	cfg := validCoreConfig()
	cfg.Migration = MigrationConfig{Enabled: false, MaxChain: 0, MaxHops: -7}
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled migration config rejected: %v", err)
	}
}

func TestSlots(t *testing.T) {
	cfg := Config{ServerBandwidth: []float64{100, 99, 3, 301}, ViewRate: 3}
	want := []int{33, 33, 1, 100}
	for i, w := range want {
		if got := cfg.Slots(i); got != w {
			t.Errorf("Slots(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestTotalBandwidth(t *testing.T) {
	cfg := Config{ServerBandwidth: []float64{100, 200, 300}}
	if got := cfg.TotalBandwidth(); got != 600 {
		t.Errorf("TotalBandwidth() = %v, want 600", got)
	}
}

func TestUnlimitedHopsConstant(t *testing.T) {
	cfg := validCoreConfig()
	cfg.Migration.MaxHops = UnlimitedHops
	if err := cfg.Validate(); err != nil {
		t.Errorf("UnlimitedHops rejected: %v", err)
	}
}

// Package faults models server failure and recovery for the cluster
// simulation. It turns a fault specification — a stochastic process
// (exponential MTBF/MTTR per server) or a scripted trace — into a
// deterministic, pre-compiled sequence of engine events.
//
// Beyond binary up/down failures the package models two partial-failure
// regimes:
//
//   - Brownouts: a server's effective bandwidth scales to a fraction
//     f ∈ (0,1] for a duration (overheating, a degraded NIC, a noisy
//     neighbour). Brownouts come from a scripted trace or from their own
//     per-server stochastic process, drawn on a stream split off the
//     failure stream so enabling one process never perturbs the other.
//   - Correlated failure domains: servers grouped into racks or zones
//     fail (or brown out) together — one domain event takes down every
//     member. Domains are scripted via the domain-* trace kinds or
//     driven by a per-domain stochastic process on its own split stream.
//
// Determinism is the package's contract: the stochastic processes draw
// every variate up front from per-server (or per-domain) streams derived
// with the repository's stream-splitting discipline (rng.DeriveSeed), so
// the compiled schedule depends only on (config, cluster size, horizon,
// seed) — never on event interleaving or GOMAXPROCS.
package faults

import (
	"fmt"
	"math"
	"slices"

	"semicont/internal/rng"
)

// Seed-stream labels decoupling each fault process from every other
// random stream.
const (
	seedLabel         uint64 = 0x6661756c74 // "fault": per-server failures
	brownoutSeedLabel uint64 = 0x6272776e   // "brwn": per-server brownouts
	domainSeedLabel   uint64 = 0x646f6d61   // "doma": per-domain events
)

// Kind values for scripted trace events. The domain-* kinds target a
// failure domain (Config.Domains index) instead of a single server and
// expand to one compiled event per member.
const (
	KindFail           = "fail"
	KindRecover        = "recover"
	KindBrownout       = "brownout"
	KindRestore        = "restore"
	KindDomainFail     = "domain-fail"
	KindDomainRecover  = "domain-recover"
	KindDomainBrownout = "domain-brownout"
	KindDomainRestore  = "domain-restore"
)

// Event is one scripted fault event. Times are in simulated hours from
// the start of the run. Cold is only meaningful on a recovery and marks
// the server's storage as wiped (its replicas are lost and must be
// rebuilt through dynamic replication). Fraction is required on
// brownout kinds — the effective-bandwidth fraction f ∈ (0,1] — and
// must be absent on every other kind. Domain kinds address
// Config.Domains[Domain] and must leave Server zero; server kinds must
// leave Domain zero.
type Event struct {
	AtHours  float64 `json:"at_hours"`
	Server   int     `json:"server"`
	Domain   int     `json:"domain,omitempty"`
	Kind     string  `json:"kind"`
	Cold     bool    `json:"cold,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
}

// Config specifies the fault model for one run. The zero value disables
// faults entirely. The stochastic processes and a scripted trace are
// mutually exclusive: mixing the two on one cluster could interleave
// events out of order for a server. The per-server processes (failures,
// brownouts) may run together — Compile suppresses brownout intervals
// that would overlap a down interval; the domain process replaces the
// per-server processes (a run has one correlation regime).
type Config struct {
	// MTBFHours is each server's mean time between failures (exponential),
	// in simulated hours. Zero disables the stochastic failure process.
	MTBFHours float64

	// MTTRHours is each server's mean time to recovery (exponential), in
	// simulated hours. Required positive when MTBFHours > 0.
	MTTRHours float64

	// Cold marks stochastic recoveries as cold: the server rejoins with
	// its storage wiped. Warm (default) recoveries keep replicas intact.
	// Applies to the domain process too when it injects failures.
	Cold bool

	// BrownoutMTBFHours is each server's mean time between brownouts
	// (exponential), in simulated hours. Zero disables the stochastic
	// brownout process.
	BrownoutMTBFHours float64

	// BrownoutMTTRHours is each brownout's mean duration (exponential),
	// in simulated hours. Required positive when BrownoutMTBFHours > 0.
	BrownoutMTTRHours float64

	// BrownoutFraction is the effective-bandwidth fraction f ∈ (0,1]
	// applied for the duration of each stochastic brownout. Required in
	// range when BrownoutMTBFHours > 0.
	BrownoutFraction float64

	// Domains groups servers into correlated failure domains (racks,
	// zones). Every domain must be non-empty and no server may belong to
	// two domains. Domains are referenced by index from domain-* trace
	// events and drive the stochastic domain process below.
	Domains [][]int

	// DomainMTBFHours is each domain's mean time between events
	// (exponential), in simulated hours. Zero disables the stochastic
	// domain process; positive requires Domains and DomainMTTRHours, and
	// is mutually exclusive with the per-server processes — a run has
	// one correlation regime.
	DomainMTBFHours float64

	// DomainMTTRHours is each domain event's mean duration (exponential),
	// in simulated hours.
	DomainMTTRHours float64

	// DomainBrownout makes stochastic domain events brown members out to
	// DomainFraction instead of failing them.
	DomainBrownout bool

	// DomainFraction is the effective-bandwidth fraction f ∈ (0,1] for
	// domain brownouts. Required in range when DomainBrownout is set;
	// must be zero otherwise.
	DomainFraction float64

	// Trace is a scripted event sequence, validated by Validate and used
	// instead of the stochastic processes.
	Trace []Event
}

// Enabled reports whether the configuration injects any faults. A trace
// containing only brownout events arms the fault path exactly like one
// containing failures, as does any of the three stochastic processes.
func (c Config) Enabled() bool {
	return c.MTBFHours > 0 || c.BrownoutMTBFHours > 0 || c.DomainMTBFHours > 0 || len(c.Trace) > 0
}

// validFraction reports whether f is a usable effective-bandwidth
// fraction: finite and in (0,1].
func validFraction(f float64) bool {
	return !math.IsNaN(f) && f > 0 && f <= 1
}

func checkRate(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("faults: %s %g must be finite and non-negative", name, v)
	}
	return nil
}

// Validate reports configuration errors for a cluster of numServers.
func (c Config) Validate(numServers int) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MTBFHours", c.MTBFHours}, {"MTTRHours", c.MTTRHours},
		{"BrownoutMTBFHours", c.BrownoutMTBFHours}, {"BrownoutMTTRHours", c.BrownoutMTTRHours},
		{"DomainMTBFHours", c.DomainMTBFHours}, {"DomainMTTRHours", c.DomainMTTRHours},
	} {
		if err := checkRate(f.name, f.v); err != nil {
			return err
		}
	}
	if c.MTBFHours > 0 && c.MTTRHours <= 0 {
		return fmt.Errorf("faults: MTBFHours %g requires a positive MTTRHours", c.MTBFHours)
	}
	if c.BrownoutMTBFHours > 0 {
		if c.BrownoutMTTRHours <= 0 {
			return fmt.Errorf("faults: BrownoutMTBFHours %g requires a positive BrownoutMTTRHours", c.BrownoutMTBFHours)
		}
		if !validFraction(c.BrownoutFraction) {
			return fmt.Errorf("faults: BrownoutFraction %g must be in (0,1]", c.BrownoutFraction)
		}
	} else if c.BrownoutFraction != 0 && !validFraction(c.BrownoutFraction) {
		return fmt.Errorf("faults: BrownoutFraction %g must be in (0,1]", c.BrownoutFraction)
	}
	if err := c.validateDomains(numServers); err != nil {
		return err
	}
	if c.DomainMTBFHours > 0 {
		if len(c.Domains) == 0 {
			return fmt.Errorf("faults: DomainMTBFHours %g requires Domains", c.DomainMTBFHours)
		}
		if c.DomainMTTRHours <= 0 {
			return fmt.Errorf("faults: DomainMTBFHours %g requires a positive DomainMTTRHours", c.DomainMTBFHours)
		}
		if c.MTBFHours > 0 || c.BrownoutMTBFHours > 0 {
			return fmt.Errorf("faults: the domain process and the per-server processes are mutually exclusive")
		}
	}
	if c.DomainBrownout && !validFraction(c.DomainFraction) {
		return fmt.Errorf("faults: DomainFraction %g must be in (0,1]", c.DomainFraction)
	}
	if !c.DomainBrownout && c.DomainFraction != 0 {
		return fmt.Errorf("faults: DomainFraction %g set without DomainBrownout", c.DomainFraction)
	}
	if (c.MTBFHours > 0 || c.BrownoutMTBFHours > 0 || c.DomainMTBFHours > 0) && len(c.Trace) > 0 {
		return fmt.Errorf("faults: stochastic processes and a scripted Trace are mutually exclusive")
	}
	return validateTrace(c.Trace, numServers, c.Domains)
}

// validateDomains checks the domain definition itself: every domain
// non-empty, every member in range, and no server in two domains (a
// shared member would receive out-of-order events from both).
func (c Config) validateDomains(numServers int) error {
	seen := make(map[int]int)
	for d, members := range c.Domains {
		if len(members) == 0 {
			return fmt.Errorf("faults: domain %d is empty", d)
		}
		for _, s := range members {
			if s < 0 || s >= numServers {
				return fmt.Errorf("faults: domain %d member %d outside cluster of %d", d, s, numServers)
			}
			if prev, dup := seen[s]; dup {
				return fmt.Errorf("faults: server %d belongs to domains %d and %d", s, prev, d)
			}
			seen[s] = d
		}
	}
	return nil
}

// Per-target fault states for trace validation. Transitions: fail only
// from up, recover only from down, brownout only from up, restore only
// from dimmed — so a brownout can never overlap a down interval and
// every sequence alternates cleanly.
const (
	stateUp uint8 = iota
	stateDown
	stateDimmed
)

// stepFaultState applies one transition to a target's state, returning
// an error naming what broke.
func stepFaultState(states map[int]uint8, key int, kind string, what string, i int) error {
	st := states[key]
	switch kind {
	case KindFail, KindDomainFail:
		switch st {
		case stateDown:
			return fmt.Errorf("faults: trace[%d] fails %s %d, which is already down", i, what, key)
		case stateDimmed:
			return fmt.Errorf("faults: trace[%d] fails %s %d while browned out (restore it first)", i, what, key)
		}
		states[key] = stateDown
	case KindRecover, KindDomainRecover:
		if st != stateDown {
			return fmt.Errorf("faults: trace[%d] recovers %s %d, which is not down", i, what, key)
		}
		states[key] = stateUp
	case KindBrownout, KindDomainBrownout:
		switch st {
		case stateDown:
			return fmt.Errorf("faults: trace[%d] browns out %s %d, which is down", i, what, key)
		case stateDimmed:
			return fmt.Errorf("faults: trace[%d] browns out %s %d, which is already browned out", i, what, key)
		}
		states[key] = stateDimmed
	case KindDomainRestore, KindRestore:
		if st != stateDimmed {
			return fmt.Errorf("faults: trace[%d] restores %s %d, which is not browned out", i, what, key)
		}
		states[key] = stateUp
	}
	return nil
}

// isDomainKind reports whether kind targets a failure domain.
func isDomainKind(kind string) bool {
	switch kind {
	case KindDomainFail, KindDomainRecover, KindDomainBrownout, KindDomainRestore:
		return true
	}
	return false
}

// isBrownoutKind reports whether kind begins a brownout (and therefore
// requires a Fraction).
func isBrownoutKind(kind string) bool {
	return kind == KindBrownout || kind == KindDomainBrownout
}

// isColdableKind reports whether kind may carry the Cold flag.
func isColdableKind(kind string) bool {
	return kind == KindRecover || kind == KindDomainRecover
}

// validKind reports whether kind is one of the eight trace kinds.
func validKind(kind string) bool {
	switch kind {
	case KindFail, KindRecover, KindBrownout, KindRestore,
		KindDomainFail, KindDomainRecover, KindDomainBrownout, KindDomainRestore:
		return true
	}
	return false
}

// validateTrace checks a scripted event sequence: global time order,
// in-range targets, known kinds, fraction ranges, and per-target
// fail/recover/brownout/restore alternation starting from the up state.
// When domains is non-nil, domain events are additionally expanded to
// their members, so a domain event overlapping a member's individual
// down or dimmed interval is rejected; with domains nil (ParseTrace,
// where membership is unknown) only the per-domain alternation is
// checked — Config.Validate re-runs with the real domain table.
func validateTrace(trace []Event, numServers int, domains [][]int) error {
	serverState := make(map[int]uint8, numServers)
	domainState := make(map[int]uint8)
	prev := math.Inf(-1)
	for i, ev := range trace {
		if math.IsNaN(ev.AtHours) || math.IsInf(ev.AtHours, 0) || ev.AtHours < 0 {
			return fmt.Errorf("faults: trace[%d] time %g must be finite and non-negative", i, ev.AtHours)
		}
		if ev.AtHours < prev {
			return fmt.Errorf("faults: trace[%d] time %g before preceding event at %g", i, ev.AtHours, prev)
		}
		prev = ev.AtHours
		if !validKind(ev.Kind) {
			return fmt.Errorf("faults: trace[%d] has unknown kind %q", i, ev.Kind)
		}
		if ev.Cold && !isColdableKind(ev.Kind) {
			return fmt.Errorf("faults: trace[%d] marks a %s cold (cold applies to recoveries)", i, ev.Kind)
		}
		if isBrownoutKind(ev.Kind) {
			if !validFraction(ev.Fraction) {
				return fmt.Errorf("faults: trace[%d] brownout fraction %g must be in (0,1]", i, ev.Fraction)
			}
		} else if ev.Fraction != 0 {
			return fmt.Errorf("faults: trace[%d] %s carries a fraction (only brownouts take one)", i, ev.Kind)
		}
		if isDomainKind(ev.Kind) {
			if ev.Server != 0 {
				return fmt.Errorf("faults: trace[%d] %s sets server %d (domain events target a domain)", i, ev.Kind, ev.Server)
			}
			if ev.Domain < 0 {
				return fmt.Errorf("faults: trace[%d] negative domain %d", i, ev.Domain)
			}
			if domains != nil && ev.Domain >= len(domains) {
				return fmt.Errorf("faults: trace[%d] domain %d outside the %d configured domains", i, ev.Domain, len(domains))
			}
			if err := stepFaultState(domainState, ev.Domain, ev.Kind, "domain", i); err != nil {
				return err
			}
			if domains != nil {
				for _, s := range domains[ev.Domain] {
					if err := stepFaultState(serverState, s, ev.Kind, "server", i); err != nil {
						return err
					}
				}
			}
			continue
		}
		if ev.Domain != 0 {
			return fmt.Errorf("faults: trace[%d] %s sets domain %d (server events target a server)", i, ev.Kind, ev.Domain)
		}
		if ev.Server < 0 || ev.Server >= numServers {
			return fmt.Errorf("faults: trace[%d] server %d outside cluster of %d", i, ev.Server, numServers)
		}
		if err := stepFaultState(serverState, ev.Server, ev.Kind, "server", i); err != nil {
			return err
		}
	}
	return nil
}

// Compiled is one engine-ready fault event; At is in simulated seconds.
// Brownout distinguishes the partial-failure pair: Brownout && !Recover
// dims the server's effective bandwidth to Fraction, Brownout && Recover
// restores it. Fraction is set only on brownout begins.
type Compiled struct {
	At       float64
	Server   int
	Recover  bool
	Cold     bool
	Brownout bool
	Fraction float64
}

// interval is one closed stochastic downtime [start, end] used for
// brownout-overlap suppression.
type interval struct{ start, end float64 }

// overlaps reports whether two closed intervals intersect or touch.
// Touching counts: a brownout beginning exactly at a recovery instant
// (or ending exactly at a failure instant) would race the failure
// event's ordering, so it is suppressed too.
func (iv interval) overlaps(o interval) bool {
	return iv.start <= o.end && o.start <= iv.end
}

// Compile validates cfg and expands it into the full, time-ordered
// event schedule for a run of horizonHours. Each stochastic process
// draws one independent variate stream per server (or domain) from
// seed; begins are generated inside [0, horizon) and every begin is
// paired with its end even when that end lands past the horizon (the
// drain phase observes it), unless a mean repair time near the float
// range puts the end at +Inf: that end never comes, so it is dropped.
// When the failure and brownout processes run together, a brownout
// interval that overlaps (or touches) one of the server's down
// intervals is dropped whole — a down server has no bandwidth to dim,
// and dropping the interval keeps each server's event sequence cleanly
// alternating.
func Compile(cfg Config, numServers int, horizonHours float64, seed uint64) ([]Compiled, error) {
	if err := cfg.Validate(numServers); err != nil {
		return nil, err
	}
	var out []Compiled
	for _, ev := range cfg.Trace {
		c := Compiled{
			At:       ev.AtHours * 3600,
			Recover:  ev.Kind == KindRecover || ev.Kind == KindRestore || ev.Kind == KindDomainRecover || ev.Kind == KindDomainRestore,
			Cold:     ev.Cold,
			Brownout: ev.Kind == KindBrownout || ev.Kind == KindRestore || ev.Kind == KindDomainBrownout || ev.Kind == KindDomainRestore,
		}
		if isBrownoutKind(ev.Kind) {
			c.Fraction = ev.Fraction
		}
		if isDomainKind(ev.Kind) {
			for _, s := range cfg.Domains[ev.Domain] {
				c.Server = s
				out = append(out, c)
			}
			continue
		}
		c.Server = ev.Server
		out = append(out, c)
	}
	horizon := horizonHours * 3600
	// Down intervals per server, kept only when the brownout process
	// needs them for overlap suppression.
	var downIvs [][]interval
	if cfg.MTBFHours > 0 && cfg.BrownoutMTBFHours > 0 {
		downIvs = make([][]interval, numServers)
	}
	if cfg.MTBFHours > 0 {
		mtbf := cfg.MTBFHours * 3600
		mttr := cfg.MTTRHours * 3600
		for s := 0; s < numServers; s++ {
			g := rng.New(rng.DeriveSeed(seed, seedLabel, uint64(s)))
			t := 0.0
			for {
				t += g.ExpFloat64() * mtbf
				if t >= horizon {
					break
				}
				start := t
				out = append(out, Compiled{At: t, Server: s})
				t += g.ExpFloat64() * mttr
				out = append(out, Compiled{At: t, Server: s, Recover: true, Cold: cfg.Cold})
				if downIvs != nil {
					downIvs[s] = append(downIvs[s], interval{start, t})
				}
			}
		}
	}
	if cfg.BrownoutMTBFHours > 0 {
		mtbf := cfg.BrownoutMTBFHours * 3600
		mttr := cfg.BrownoutMTTRHours * 3600
		for s := 0; s < numServers; s++ {
			g := rng.New(rng.DeriveSeed(seed, brownoutSeedLabel, uint64(s)))
			t := 0.0
			for {
				t += g.ExpFloat64() * mtbf
				if t >= horizon {
					break
				}
				iv := interval{t, t + g.ExpFloat64()*mttr}
				t = iv.end
				if downIvs != nil && slices.ContainsFunc(downIvs[s], iv.overlaps) {
					continue // suppressed: the server is (or goes) down inside it
				}
				out = append(out,
					Compiled{At: iv.start, Server: s, Brownout: true, Fraction: cfg.BrownoutFraction},
					Compiled{At: iv.end, Server: s, Brownout: true, Recover: true})
			}
		}
	}
	if cfg.DomainMTBFHours > 0 {
		mtbf := cfg.DomainMTBFHours * 3600
		mttr := cfg.DomainMTTRHours * 3600
		for d := range cfg.Domains {
			g := rng.New(rng.DeriveSeed(seed, domainSeedLabel, uint64(d)))
			t := 0.0
			for {
				t += g.ExpFloat64() * mtbf
				if t >= horizon {
					break
				}
				start := t
				t += g.ExpFloat64() * mttr
				for _, s := range cfg.Domains[d] {
					if cfg.DomainBrownout {
						out = append(out,
							Compiled{At: start, Server: s, Brownout: true, Fraction: cfg.DomainFraction},
							Compiled{At: t, Server: s, Brownout: true, Recover: true})
					} else {
						out = append(out,
							Compiled{At: start, Server: s},
							Compiled{At: t, Server: s, Recover: true, Cold: cfg.Cold})
					}
				}
			}
		}
	}
	out = slices.DeleteFunc(out, func(c Compiled) bool { return math.IsInf(c.At, 1) })
	// Per-target sequences are already ordered; the stable sort merges
	// them deterministically (ties resolved by server id, then original
	// order, so a zero-length downtime keeps begin before end).
	slices.SortStableFunc(out, func(a, b Compiled) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		return a.Server - b.Server
	})
	return out, nil
}

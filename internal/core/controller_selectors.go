package core

// The admission selectors; leastLoadedSelector is the paper's
// assignment rule (the golden-equivalence fixtures pin it).

import "semicont/internal/rng"

// selectors maps each selector name to its constructor. An engine
// builds its own instance, because random-feasible carries per-engine
// RNG state and scratch; seed is that instance's own stream (see
// selectorSeed), which the deterministic selectors ignore.
var selectors = map[string]func(seed uint64) ServerSelector{
	SelectorLeastLoaded:    func(uint64) ServerSelector { return leastLoadedSelector{} },
	SelectorFirstFit:       func(uint64) ServerSelector { return firstFitSelector{} },
	SelectorMostHeadroom:   func(uint64) ServerSelector { return mostHeadroomSelector{} },
	SelectorRandomFeasible: func(seed uint64) ServerSelector { return &randomFeasibleSelector{rng: rng.New(seed)} },
}

// selectorSeed derives a selector instance's stream from
// Config.SelectorSeed: the engine default's (class < 0) under the
// "sele" label alone, traffic class k's under the same label and k+1,
// so no two instances share a stream.
func (c Config) selectorSeed(class int32) uint64 {
	const label = 0x73656c65 // "sele"
	if class < 0 {
		return rng.DeriveSeed(c.SelectorSeed, label)
	}
	return rng.DeriveSeed(c.SelectorSeed, label, uint64(class)+1)
}

// leastLoadedSelector picks the feasible holder with the fewest
// unfinished streams; ties resolve to the earliest holder in replica
// order (the strict < keeps the original tie-break).
type leastLoadedSelector struct{}

func (leastLoadedSelector) Select(e *Engine, v int, t float64) *server {
	var best *server
	for _, h := range e.holders(v) {
		s := e.servers[h]
		if e.canAccept(s, t) && (best == nil || s.load() < best.load()) {
			best = s
		}
	}
	return best
}

// firstFitSelector picks the first feasible holder in replica order.
type firstFitSelector struct{}

func (firstFitSelector) Select(e *Engine, v int, t float64) *server {
	for _, h := range e.holders(v) {
		s := e.servers[h]
		if e.canAccept(s, t) {
			return s
		}
	}
	return nil
}

// mostHeadroomSelector picks the feasible holder with the most
// uncommitted bandwidth: capacity minus b_view per unfinished stream.
// The commitment (not the instantaneous Σ rates, which depends on each
// server's last sync time) keeps the choice deterministic. Ties resolve
// to the earliest holder.
type mostHeadroomSelector struct{}

func (mostHeadroomSelector) Select(e *Engine, v int, t float64) *server {
	var best *server
	bestRoom := 0.0
	for _, h := range e.holders(v) {
		s := e.servers[h]
		if !e.canAccept(s, t) {
			continue
		}
		room := s.bandwidth - float64(s.load())*e.cfg.ViewRate
		if best == nil || room > bestRoom {
			best, bestRoom = s, room
		}
	}
	return best
}

// randomFeasibleSelector picks uniformly at random among the feasible
// holders. Its stream is split off Config.SelectorSeed when the engine
// builds it, so equal seeds draw the same selection sequence regardless
// of trial fan-out; the candidate slice is per-engine scratch reused
// across events to keep the admission path allocation-free in steady
// state.
type randomFeasibleSelector struct {
	rng  *rng.PCG
	feas []*server
}

func (sel *randomFeasibleSelector) Select(e *Engine, v int, t float64) *server {
	sel.feas = sel.feas[:0]
	for _, h := range e.holders(v) {
		s := e.servers[h]
		if e.canAccept(s, t) {
			sel.feas = append(sel.feas, s)
		}
	}
	if len(sel.feas) == 0 {
		return nil
	}
	return sel.feas[sel.rng.Intn(len(sel.feas))]
}

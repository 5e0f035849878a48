package core

// The admission selectors; leastLoadedSelector is the paper's
// assignment rule (the golden-equivalence fixtures pin it).

import "semicont/internal/rng"

// selectors maps each selector name to its constructor. An engine
// builds its own instance, because random-feasible carries per-engine
// RNG state and scratch.
var selectors = map[string]func() ServerSelector{
	SelectorLeastLoaded:    func() ServerSelector { return leastLoadedSelector{} },
	SelectorFirstFit:       func() ServerSelector { return firstFitSelector{} },
	SelectorMostHeadroom:   func() ServerSelector { return mostHeadroomSelector{} },
	SelectorRandomFeasible: func() ServerSelector { return &randomFeasibleSelector{} },
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
// holders. Its stream is split off Config.SelectorSeed on first use, so
// equal seeds draw the same selection sequence regardless of trial
// fan-out; the candidate slice is per-engine scratch reused across
// events to keep the admission path allocation-free in steady state.
type randomFeasibleSelector struct {
	rng  *rng.PCG
	feas []*server
}

func (sel *randomFeasibleSelector) Select(e *Engine, v int, t float64) *server {
	if sel.rng == nil {
		sel.rng = rng.New(rng.DeriveSeed(e.cfg.SelectorSeed, 0x73656c65)) // "sele"
	}
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

package core

import "math"

// AllocMinFlowEFTF names the paper's algorithm, minimum-flow guarantee
// plus Earliest-Finishing-Time-First workahead (Figure 2): the one value
// the obsolete Config.Allocator still accepts.
const AllocMinFlowEFTF = "minflow-eftf"

// allocate recomputes the bandwidth allocation of server s at time t:
// the intermittent heuristic or the minimum-flow guarantee, then copy
// jobs, then — with workahead — the spare feed of the configured
// discipline. The feed takes the candidates the minimum-flow sweep
// gathered when its spare is within the sweep's budget, and otherwise
// gathers them in a second sweep (spreadSpare), as it always does
// after the intermittent heuristic. Every request in s.active and every
// copy job must already be synced to t. It returns the earliest future
// instant at which the allocation must be recomputed absent external
// events (+Inf when the server is idle).
func (e *Engine) allocate(s *server, t float64) float64 {
	var avail float64
	gathered := false
	if e.cfg.Intermittent {
		avail = e.allocateIntermittent(s, t)
	} else {
		avail, gathered = e.minFlowRates(s, t)
		avail = e.allocateCopies(s, t, avail)
	}
	if e.cfg.Workahead && avail > dataEps {
		if gathered {
			e.feedSpare(s, t, avail)
		} else {
			e.spreadSpare(s, t, avail)
		}
	}
	return s.wakeAt(t)
}

// reschedule recomputes s's allocation at time t and replaces its
// pending wake event. Requests must be synced to t first.
func (e *Engine) reschedule(s *server, t float64) {
	next := e.allocate(s, t)
	s.version++
	if !math.IsInf(next, 1) {
		e.events.Push(next, event{kind: evServerWake, server: s.id, version: s.version})
	}
}

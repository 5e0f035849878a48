package core

import (
	"fmt"
	"math"
	"slices"
)

// Names of the bandwidth-allocation policies. Config.Allocator may name
// one, as another spelling of the Intermittent and Spare fields it
// implies; the engine reads only those fields.
const (
	// AllocMinFlowEFTF is the paper's algorithm: minimum-flow guarantee
	// plus Earliest-Finishing-Time-First workahead (Figure 2).
	AllocMinFlowEFTF = "minflow-eftf"
	// AllocMinFlowLFTF feeds spare to the latest projected finisher
	// first — the adversarial ablation of the EFTF theorem.
	AllocMinFlowLFTF = "minflow-lftf"
	// AllocMinFlowEvenSplit water-fills spare bandwidth equally across
	// staging candidates.
	AllocMinFlowEvenSplit = "minflow-evensplit"
	// AllocIntermittent is the Section 3.3 intermittent-class heuristic:
	// full-buffer streams may be paused entirely so the server can
	// over-subscribe its minimum-flow slots.
	AllocIntermittent = "intermittent"
)

// AllocatorNames returns the allocation policy names, sorted.
func AllocatorNames() []string {
	return []string{AllocIntermittent, AllocMinFlowEFTF, AllocMinFlowEvenSplit, AllocMinFlowLFTF}
}

// validateAllocator checks Config.Allocator: a set name must be one of
// the four policies and agree with the Intermittent/Spare fields it
// mirrors (admission control and the audit contract read those fields).
func (c Config) validateAllocator() error {
	if c.Allocator == "" {
		return nil
	}
	if !slices.Contains(AllocatorNames(), c.Allocator) {
		return fmt.Errorf("core: unknown allocator %q (have %v)", c.Allocator, AllocatorNames())
	}
	implied := AllocMinFlowEFTF
	switch {
	case c.Intermittent:
		implied = AllocIntermittent
	case c.Spare == LFTF:
		implied = AllocMinFlowLFTF
	case c.Spare == EvenSplit:
		implied = AllocMinFlowEvenSplit
	}
	if c.Allocator != implied {
		return fmt.Errorf("core: Allocator %q inconsistent with Intermittent/Spare (which imply %q)", c.Allocator, implied)
	}
	return nil
}

// allocate recomputes the bandwidth allocation of server s at time t:
// the intermittent heuristic or the minimum-flow guarantee, then copy
// jobs, then — with workahead — the spare feed of the configured
// discipline. Every request in s.active and every copy job must already
// be synced to t. It returns the earliest future instant at which the
// allocation must be recomputed absent external events (+Inf when the
// server is idle).
func (e *Engine) allocate(s *server, t float64) float64 {
	var avail float64
	if e.cfg.Intermittent {
		avail = e.allocateIntermittent(s, t)
	} else {
		avail = e.allocateCopies(s, t, e.minFlowRates(s, t))
	}
	if e.cfg.Workahead && avail > dataEps {
		e.spreadSpare(s, t, avail)
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

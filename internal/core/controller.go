package core

// The controller layer: the paper separates the distribution controller
// (admission control and dynamic request migration, Sections 3.1–3.2)
// from the data servers. The controller's two choices are named by
// Config.Selector (which feasible replica holder admits a new stream;
// threaded from Policy.Selector) and Config.Planner (how far the DRM
// chain search may go; threaded from Policy.Planner).
//
// The engine keeps event dispatch and accounting; findAdmission and
// admitViaMigration below are the controller glue shared by arrivals,
// retry-queue re-attempts, and (selection only) parked-stream
// reconnects, so fault-tolerance behavior rides the same path.

import (
	"fmt"
	"slices"
)

// ServerSelector is the admission-control policy: given a new stream's
// video, pick the server that admits it among the live replica holders
// that can accept one more stream, or nil when none can.
//
// Implementations live beside the engine in this package (they read
// per-server state directly, keeping the admission hot path free of
// per-candidate interface dispatch) and must be deterministic given the
// engine state and Config.SelectorSeed. Adding a selector means
// implementing the interface in controller_selectors.go and adding its
// constructor to selectors.
type ServerSelector interface {
	// Select picks the admitting server for a new stream of video v at
	// time t, or nil when no feasible holder exists.
	Select(e *Engine, v int, t float64) *server
}

// Names of the controller policies.
const (
	// SelectorLeastLoaded assigns to the feasible replica holder with
	// the fewest unfinished streams (Section 3.2's assignment rule).
	// The default.
	SelectorLeastLoaded = "least-loaded"
	// SelectorFirstFit assigns to the first feasible holder in replica
	// order — the simplest possible controller.
	SelectorFirstFit = "first-fit"
	// SelectorMostHeadroom assigns to the feasible holder with the most
	// uncommitted bandwidth (capacity minus the minimum-flow commitment
	// of its unfinished streams), which differs from least-loaded only
	// on heterogeneous clusters.
	SelectorMostHeadroom = "most-headroom"
	// SelectorRandomFeasible assigns uniformly at random among the
	// feasible holders, seeded from Config.SelectorSeed (a split-RNG
	// stream, so runs stay bit-reproducible).
	SelectorRandomFeasible = "random-feasible"

	// PlannerChainDFS is the iterative-deepening DFS chain search: a
	// direct move when one exists, else recursively free a target
	// (depth > 1). The default; depth 1 reproduces the paper's single
	// migration per arrival.
	PlannerChainDFS = "chain-dfs"
	// PlannerDirectOnly plans single moves only: it never recurses, so
	// chains longer than one are never produced even when MaxChain
	// permits them.
	PlannerDirectOnly = "direct-only"
)

// HasSelector reports whether a selector with the given name exists.
func HasSelector(name string) bool {
	_, ok := selectors[name]
	return ok
}

// HasPlanner reports whether a planner with the given name exists.
func HasPlanner(name string) bool {
	return slices.Contains(PlannerNames(), name)
}

// SelectorNames returns the selector names, sorted.
func SelectorNames() []string {
	names := make([]string, 0, len(selectors))
	for n := range selectors {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// PlannerNames returns the planner names, sorted.
func PlannerNames() []string {
	return []string{PlannerChainDFS, PlannerDirectOnly}
}

// SelectorName returns the effective selector name for this
// configuration: Selector when set, otherwise the default.
func (c Config) SelectorName() string {
	if c.Selector != "" {
		return c.Selector
	}
	return SelectorLeastLoaded
}

// validateController checks the controller names. A planner is only
// consulted when DRM runs, so naming one with migration disabled is a
// configuration contradiction, rejected rather than silently ignored.
func (c Config) validateController() error {
	if c.Selector != "" && !HasSelector(c.Selector) {
		return fmt.Errorf("core: unknown selector %q (have %v)", c.Selector, SelectorNames())
	}
	if c.Planner != "" {
		if !HasPlanner(c.Planner) {
			return fmt.Errorf("core: unknown planner %q (have %v)", c.Planner, PlannerNames())
		}
		if !c.Migration.Enabled {
			return fmt.Errorf("core: Planner %q configured while Migration is disabled", c.Planner)
		}
	}
	return nil
}

// selector returns the engine's admission selector, built on first use
// — lazily because tests adjust cfg between NewEngine and the first
// event. Validate vets the name.
func (e *Engine) selector() ServerSelector {
	if e.sel == nil {
		e.sel = selectors[e.cfg.SelectorName()](e.cfg.selectorSeed(-1))
	}
	return e.sel
}

// findAdmission locates a server for a new stream of video v: the
// selector's pick among feasible replica holders, else a server freed
// via dynamic request migration when configured. The selector is the
// request's traffic class's (the engine default for classless runs and
// classes without an override). The bool reports a DRM admission.
// Arrivals and retry-queue attempts share it.
func (e *Engine) findAdmission(v int, t float64, class int32) (*server, bool) {
	best := e.classSelector(class).Select(e, v, t)
	viaDRM := false
	if best == nil && e.cfg.Migration.Enabled {
		best, viaDRM = e.admitViaMigration(int32(v), t)
	}
	if best != nil && e.audit != nil {
		feasible := e.canAccept(best, t)
		if viaDRM && e.cfg.Intermittent {
			// A DRM plan frees a minimum-flow slot, but the intermittent
			// admission test can still count the server urgent-full —
			// over-subscribing it is exactly what intermittent mode
			// permits, so the claim reduces to liveness (the move and
			// chain taps audit the plan itself).
			feasible = !best.failed
		}
		e.auditFail(e.audit.Admission(t, int32(v), best.id, viaDRM, feasible))
	}
	return best, viaDRM
}

// admit runs the controller's admission decision for video v at time t
// and, on success, attaches a new stream with the given client
// capabilities and traffic class (-1 for classless runs) and does the
// shared success accounting (acceptance counters, observer callback,
// interaction draw, reschedule). prefix is the volume served by the
// arrival's edge node (0 without an edge hit): the cluster stream is
// the object's suffix, that much smaller and marked with its start
// offset. handleArrival and handleRetry wrap admit with their own
// failure paths.
func (e *Engine) admit(v int, t, bufCap, recvCap float64, class int32, prefix float64) bool {
	best, viaDRM := e.findAdmission(v, t, class)
	if best == nil {
		return false
	}
	best.syncAll(t)
	r := e.newRequest(v, t)
	if prefix > 0 {
		r.size -= prefix
		r.startOff = prefix
	}
	r.bufCap, r.recvCap = bufCap, recvCap
	r.class = class
	best.attach(r)
	e.metrics.Accepted++
	e.metrics.AcceptedBytes += r.size
	if class >= 0 {
		e.metrics.ClassAccepted[class]++
	}
	if prefix > 0 {
		e.metrics.EdgeHits++
		e.metrics.EdgeMb += prefix
		if e.audit != nil {
			e.auditFail(e.audit.EdgeServe(t, int32(v), prefix, 0, 0, r.size, r.size+prefix, false))
		}
	}
	if e.obs != nil {
		e.obs.OnAdmit(t, r.id, v, int(best.id), viaDRM)
	}
	e.scheduleInteraction(r, t)
	e.reschedule(best, t)
	return true
}

// admitViaMigration attempts to admit a request for video v at time now
// by migrating active requests. All replica holders of v are known to be
// full. On success it executes the plan and returns the freed server.
// Iterative deepening keeps chains as short as possible, so the paper's
// MaxChain=1 configuration performs exactly one migration per arrival;
// the direct-only planner caps the chain at that one move.
func (e *Engine) admitViaMigration(v int32, now float64) (*server, bool) {
	holders := e.holders(int(v))
	maxChain := e.cfg.Migration.MaxChain
	if e.cfg.Planner == PlannerDirectOnly {
		maxChain = 1
	}
	for depth := 1; depth <= maxChain; depth++ {
		for _, h := range holders {
			s := e.servers[h]
			if s.failed {
				continue
			}
			clear(e.visited)
			e.visited[s.id] = true
			plan := e.planChain(s, now, depth, e.visited)
			if plan == nil {
				continue
			}
			e.executeMoves(plan, now, false)
			if e.audit != nil {
				e.auditFail(e.audit.Chain(now, len(plan)))
			}
			e.metrics.AdmissionsViaDRM++
			e.metrics.ChainLengthTotal += int64(len(plan))
			if len(plan) > e.metrics.MaxChainUsed {
				e.metrics.MaxChainUsed = len(plan)
			}
			return s, true
		}
	}
	return nil, false
}

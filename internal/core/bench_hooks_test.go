package core

// Benchmark entry points into the allocation round, the controller and
// the edge tier. These tiny shims pin the bench bodies to stable names
// across refactors of those layers, so BENCH_alloc.json baselines stay
// comparable.

// benchAllocateWake performs one allocation pass plus the next-wake
// computation — the work reschedule does per event, minus the queue
// push.
func benchAllocateWake(e *Engine, s *server) {
	e.allocate(s, 0)
}

// benchSpreadSpare spreads the given spare over s's staging candidates,
// gathering them in the standalone (second) sweep.
func benchSpreadSpare(e *Engine, s *server, avail float64) {
	e.spreadSpare(s, 0, avail)
}

// benchSelect runs one admission selection — the controller's candidate
// scan — without the attach/accounting that a real admission performs.
func benchSelect(e *Engine, v int, t float64) *server {
	return e.selector().Select(e, v, t)
}

// benchEdgeProbe runs one edge-tier probe — the per-arrival cache
// lookup (and, for replacing policies, the admit/evict update) that
// precedes admission when the edge tier is on.
func benchEdgeProbe(e *Engine, v int) float64 {
	return e.edgeProbe(v)
}

// benchPlanDRM runs the DRM planner for an arrival whose holder s is
// full, as admitViaMigration does for each holder at chain depth 1,
// without executing the plan. It reports whether a move was found.
func benchPlanDRM(e *Engine, s *server, t float64) bool {
	clear(e.visited)
	e.visited[s.id] = true
	return e.planChain(s, t, 1, e.visited) != nil
}

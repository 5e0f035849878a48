package core

// Dynamic request migration (Section 3.1). When a request arrives and
// every server holding a replica of its video is full, the controller
// may migrate an active request off one of those servers to another
// server that holds a replica of *that* request's video, releasing a
// slot for the new arrival. The paper keeps the migration chain length
// at one (one migrated request per arrival) and studies hops-per-request
// limits of one and unlimited; bounded chain search (depth > 1) is
// supported as an ablation.
//
// This file is the move mechanism — which requests may move where, how
// a chain is planned, and how a planned chain is executed. The
// controller's admitViaMigration (controller.go) drives the planning.

// move is one planned migration step.
type move struct {
	r  *request
	to *server
}

// eligibleTarget reports whether request r may be migrated to server t
// at time now. r must be synced to now.
func (e *Engine) eligibleTarget(r *request, t *server, now float64) bool {
	if t.failed || int(r.server) == int(t.id) {
		return false
	}
	if !e.holds(int(r.video), int(t.id)) {
		return false
	}
	return true
}

// migratable reports whether the attached request r may move at all
// (hops budget, not mid-switch, and — when switching takes time —
// enough buffered data to mask the blackout). rescue bypasses the hops
// budget: a stream on a failing server is moved if at all possible.
// r's server must be synced to now.
func (e *Engine) migratable(r *request, now float64, rescue bool) bool {
	s := e.servers[r.server]
	if s.suspendedAt(int(r.slot), now) {
		return false
	}
	if r.isPatch || r.taps > 0 {
		// Patching pins streams to their server: the multicast tree
		// feeding the taps cannot move.
		return false
	}
	if !rescue {
		mh := e.cfg.Migration.MaxHops
		if mh != UnlimitedHops && int(r.hops) >= mh {
			return false
		}
	}
	if d := e.cfg.Migration.SwitchDelay; d > 0 {
		need := d * e.cfg.ViewRate
		if s.bufferOf(int(r.slot), now, e.cfg.ViewRate) < need-dataEps {
			e.metrics.MigrationsRefusedByBuffer++
			return false
		}
	}
	return true
}

// executeMoves applies planned migrations in order. Sources and targets
// are synced and rescheduled exactly once each.
func (e *Engine) executeMoves(plan []move, now float64, rescue bool) {
	touched := e.touchedBuf[:0]
	mark := func(s *server) {
		for _, x := range touched {
			if x == s {
				return
			}
		}
		touched = append(touched, s)
	}
	for _, m := range plan {
		mark(e.servers[m.r.server])
		mark(m.to)
	}
	for _, s := range touched {
		s.syncAll(now)
	}
	for _, m := range plan {
		from := e.servers[m.r.server]
		from.detach(m.r)
		m.to.attach(m.r)
		m.r.hops++
		if d := e.cfg.Migration.SwitchDelay; d > 0 {
			m.to.setSuspend(m.r, now+d)
		}
		e.metrics.Migrations++
		if e.obs != nil {
			e.obs.OnMigrate(now, m.r.id, int(m.r.video), int(from.id), int(m.to.id), rescue)
		}
		if e.audit != nil {
			e.auditFail(e.audit.Migration(now, m.r.id, m.r.video, from.id, m.to.id, m.r.hops, rescue))
		}
	}
	for _, s := range touched {
		e.reschedule(s, now)
	}
	e.touchedBuf = touched
}

// planDirect finds the best single migration that frees a slot on s:
// among s's migratable requests with a free-slot target, it picks the
// pair whose target has the lowest load (ties: lowest request id, then
// lowest target id), mirroring the least-loaded assignment rule.
func (e *Engine) planDirect(s *server, now float64) (move, bool) {
	var best move
	bestLoad := -1
	for _, r := range s.active {
		if !e.migratable(r, now, false) {
			continue
		}
		for _, h := range e.holders(int(r.video)) {
			t := e.servers[h]
			if !e.canAccept(t, now) || !e.eligibleTarget(r, t, now) {
				continue
			}
			if bestLoad == -1 || t.load() < bestLoad ||
				(t.load() == bestLoad && (r.id < best.r.id || (r.id == best.r.id && t.id < best.to.id))) {
				best = move{r: r, to: t}
				bestLoad = t.load()
			}
		}
	}
	return best, bestLoad >= 0
}

// planChain tries to free one slot on s using at most depthLeft
// migrations. It returns the moves in execution order (deepest first).
// visited marks servers already being freed higher up the chain, to
// prevent cycles.
func (e *Engine) planChain(s *server, now float64, depthLeft int, visited []bool) []move {
	if depthLeft <= 0 {
		return nil
	}
	// Bring fluid state up to date before reading buffers: migratable's
	// switch-delay check depends on each request's current buffer level.
	s.syncAll(now)
	if m, ok := e.planDirect(s, now); ok {
		return []move{m}
	}
	if depthLeft == 1 {
		return nil
	}
	// No direct target has room: try to free a slot on some candidate
	// target first, then move one of s's requests onto it.
	for _, r := range s.active {
		if !e.migratable(r, now, false) {
			continue
		}
		for _, h := range e.holders(int(r.video)) {
			t := e.servers[h]
			if visited[t.id] || !e.eligibleTarget(r, t, now) {
				continue
			}
			visited[t.id] = true
			if sub := e.planChain(t, now, depthLeft-1, visited); sub != nil {
				return append(sub, move{r: r, to: t})
			}
			// Leave visited set: freeing t failed and cannot succeed
			// via another path within this chain either.
		}
	}
	return nil
}

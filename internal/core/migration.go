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

// migratable reports whether slot i of s may move at all (not pinned
// by patching, hops budget, not mid-switch, and — when switching takes
// time — enough buffered data to mask the blackout). rescue bypasses
// the hops budget: a stream on a failing server is moved if at all
// possible. It reads only the lane; s must be synced to now.
func (e *Engine) migratable(s *server, i int, now float64, rescue bool) bool {
	ln := &s.ln
	if s.suspendedAt(i, now) {
		return false
	}
	if ln.flags[i]&slotPinned != 0 {
		// Patching pins streams to their server: the multicast tree
		// feeding the taps cannot move.
		return false
	}
	if !rescue {
		mh := e.cfg.Migration.MaxHops
		if mh != UnlimitedHops && int(ln.meta[i].Hops) >= mh {
			return false
		}
	}
	if d := e.cfg.Migration.SwitchDelay; d > 0 {
		need := d * e.cfg.ViewRate
		if s.bufferOf(i, now, e.cfg.ViewRate) < need-dataEps {
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
		e.migrate(m.r, e.servers[m.r.server], m.to, now, rescue)
	}
	for _, s := range touched {
		e.reschedule(s, now)
	}
	e.touchedBuf = touched
}

// migrate moves r's slot from one server to another mid-transmission —
// a DRM move, or a rescue off a failing or browned-out server — and
// charges the move: one more hop on the slot, the switch-delay
// blackout, the migration counter, and the observer and audit taps.
// Both servers must be synced to now; the caller reschedules them.
func (e *Engine) migrate(r *request, from, to *server, now float64, rescue bool) {
	from.move(r, to)
	m := &to.ln.meta[r.slot]
	m.Hops++
	if d := e.cfg.Migration.SwitchDelay; d > 0 {
		to.setSuspend(r, now+d)
	}
	e.metrics.Migrations++
	if e.obs != nil {
		e.obs.OnMigrate(now, r.id, int(r.video), int(from.id), int(to.id), rescue)
	}
	if e.audit != nil {
		e.auditFail(e.audit.Migration(now, r.id, r.video, from.id, to.id, m.Hops, rescue))
	}
}

// planDirect finds the best single migration that frees a slot on s:
// among s's migratable requests with a free-slot target, it picks the
// pair whose target has the lowest load (ties: lowest request id, then
// lowest target id), mirroring the least-loaded assignment rule. Every
// stream of one title has the same candidate targets, so each title's
// best target is found once per call (directTarget, stamped into
// Engine.drmTgt) and the pair minimum is the slot with the lowest
// (target load, request id). A slot whose title has no target is
// skipped before migratable, but a title's holders are tested only
// once one of its slots is migratable: under intermittent admission
// canAccept syncs the server it tests, so which servers it sees is
// part of the result. The scan reads the lane; only the chosen slot's
// request is loaded.
func (e *Engine) planDirect(s *server, now float64) (move, bool) {
	e.drmGen++
	ln := &s.ln
	var bestTo *server
	var bestID int64
	best, bestLoad := -1, -1
	for i := range ln.meta {
		m := &ln.meta[i]
		tg := &e.drmTgt[m.Video]
		if tg.gen == e.drmGen && tg.to == nil {
			continue
		}
		if !e.migratable(s, i, now, false) {
			continue
		}
		if tg.gen != e.drmGen {
			*tg = drmTarget{gen: e.drmGen, to: e.directTarget(s, m.Video, now)}
			if tg.to == nil {
				continue
			}
		}
		t := tg.to
		if bestLoad == -1 || t.load() < bestLoad || (t.load() == bestLoad && m.ID < bestID) {
			best, bestID, bestTo, bestLoad = i, m.ID, t, t.load()
		}
	}
	if best < 0 {
		return move{}, false
	}
	return move{r: s.active[best], to: bestTo}, true
}

// drmTarget is one title's entry in planDirect's per-call scratch: the
// server a stream of the title would move to, nil when no holder can
// accept one, valid while gen equals Engine.drmGen.
type drmTarget struct {
	gen uint64
	to  *server
}

// directTarget returns the holder of video v other than s that can
// accept one more stream, lowest load first and ties to the lower
// server id, or nil when none can. Every holder but s is a target; a
// dead one cannot accept.
func (e *Engine) directTarget(s *server, v int32, now float64) *server {
	var to *server
	for _, h := range e.holders(int(v)) {
		t := e.servers[h]
		if t == s || !e.canAccept(t, now) {
			continue
		}
		if to == nil || t.load() < to.load() || (t.load() == to.load() && t.id < to.id) {
			to = t
		}
	}
	return to
}

// planChain tries to free one slot on s using at most depthLeft
// migrations. It returns the moves in execution order (deepest first).
// visited marks servers already being freed higher up the chain, to
// prevent cycles; s itself is marked before the call.
func (e *Engine) planChain(s *server, now float64, depthLeft int, visited []bool) []move {
	if depthLeft <= 0 {
		return nil
	}
	// Bring fluid state up to date before reading buffers: migratable's
	// switch-delay check depends on each request's current buffer level.
	s.syncAll(now)
	if m, ok := e.planDirect(s, now); ok {
		// The deepest move starts the plan in the engine's scratch and
		// each level up appends its own, so planning allocates nothing
		// once the scratch has held the longest chain.
		e.planBuf = append(e.planBuf[:0], m)
		return e.planBuf
	}
	if depthLeft == 1 {
		return nil
	}
	// No direct target has room: try to free a slot on some candidate
	// target first, then move one of s's requests onto it.
	ln := &s.ln
	for i := range ln.meta {
		if !e.migratable(s, i, now, false) {
			continue
		}
		for _, h := range e.holders(int(ln.meta[i].Video)) {
			t := e.servers[h]
			if visited[t.id] || t.failed {
				continue
			}
			visited[t.id] = true
			if sub := e.planChain(t, now, depthLeft-1, visited); sub != nil {
				return append(sub, move{r: s.active[i], to: t})
			}
			// Leave visited set: freeing t failed and cannot succeed
			// via another path within this chain either.
		}
	}
	return nil
}

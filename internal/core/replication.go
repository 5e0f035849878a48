package core

import "math"

// Dynamic replication: the "more resource intensive solution" the paper
// contrasts DRM against in Section 3.1 ("perform dynamic replication of
// the requested object on another server where resources can be made
// available"), in the spirit of the dynamic segment-replication and
// load-management schemes it cites ([9], [26]).
//
// When a request is rejected (every holder full and DRM, if enabled,
// found no chain), the controller starts copying the video from one of
// its holders to a server that does not hold it and has storage room.
// The copy consumes *source transmission bandwidth* — spare bandwidth
// after the minimum-flow guarantee, before client workahead, capped at
// CopyRateCap — so replication competes with staging for the same
// resource, which is exactly the trade-off the experiment measures.
// When the copy completes, the target becomes a holder and serves
// future requests; the originally rejected request is not revived.

// ReplicationConfig controls dynamic replication.
type ReplicationConfig struct {
	// Enabled turns replication on.
	Enabled bool

	// CopyRateCap bounds the bandwidth one copy job consumes on its
	// source, in Mb/s. Zero means twice the view rate.
	CopyRateCap float64
}

// copyJob is an in-flight replica transfer, accounted on its source
// server's bandwidth.
type copyJob struct {
	video  int32
	source int32
	target int32
	size   float64
	sent   float64
	rate   float64
	last   float64 // time sent was last synced

	// wakeKey is the job's stored wake key — its projected completion,
	// written by allocateCopies each allocation round on the source
	// (+Inf while unfed). Copy jobs are few, so their keys stay on the
	// job rather than in the source's lane arrays; the lane's
	// maintained min folds them in (see wake.go).
	wakeKey float64
}

// syncTo advances the transfer to time t.
func (c *copyJob) syncTo(t float64) {
	if t <= c.last {
		return
	}
	if c.rate > 0 {
		c.sent += c.rate * (t - c.last)
		if c.sent > c.size {
			c.sent = c.size
		}
	}
	c.last = t
}

// done reports whether the transfer is complete.
func (c *copyJob) done() bool { return c.size-c.sent <= dataEps }

// copyRateCap returns the per-job bandwidth cap with its default.
func (e *Engine) copyRateCap() float64 {
	if c := e.cfg.Replication.CopyRateCap; c > 0 {
		return c
	}
	return 2 * e.cfg.ViewRate
}

// holders returns the servers currently holding a replica of video v:
// the static layout plus any replicas created at runtime.
func (e *Engine) holders(v int) []int32 {
	if extra, ok := e.extraHolders[int32(v)]; ok {
		return extra
	}
	return e.layout.Holders(v)
}

// holds reports whether server s currently holds a replica of video v.
func (e *Engine) holds(v, s int) bool {
	for _, h := range e.holders(v) {
		if int(h) == s {
			return true
		}
	}
	return false
}

// startReplication tries to begin copying video v to a new server. It
// is called after a rejection; failures to find a source or target are
// silent (the next rejection will retry).
func (e *Engine) startReplication(v int32, t float64) {
	if e.copying[v] {
		// A copy of this video is already in flight; this rejection adds
		// no new replica but the deferral is accounted, not silent.
		e.metrics.ReplicationsDeferred++
		return
	}
	// Source: a live holder with no copy in flight, least busy first.
	var src *server
	for _, h := range e.holders(int(v)) {
		s := e.servers[h]
		if s.failed || len(s.copies) > 0 {
			continue
		}
		if src == nil || s.load() < src.load() || (s.load() == src.load() && s.id < src.id) {
			src = s
		}
	}
	if src == nil {
		e.metrics.ReplicationsDeferred++ // no live holder can source a copy
		return
	}
	// Target: a live non-holder with storage room, least loaded first.
	size := e.cat.Video(int(v)).Size
	var dst *server
	for _, s := range e.servers {
		if s.failed || e.holds(int(v), int(s.id)) || e.targetedBy(v, s.id) {
			continue
		}
		if cap := e.storageCap(int(s.id)); cap > 0 && e.storageUsed(int(s.id))+size > cap {
			continue
		}
		if dst == nil || s.load() < dst.load() || (s.load() == dst.load() && s.id < dst.id) {
			dst = s
		}
	}
	if dst == nil {
		e.metrics.ReplicationsDeferred++ // no eligible target with room
		return
	}
	src.syncAll(t)
	job := &copyJob{video: v, source: src.id, target: dst.id, size: size, last: t, wakeKey: math.Inf(1)}
	src.copies = append(src.copies, job)
	if e.copying == nil {
		e.copying = make(map[int32]bool)
	}
	e.copying[v] = true
	e.metrics.ReplicationsStarted++
	e.reschedule(src, t)
}

// targetedBy reports whether some in-flight copy already targets server
// s with video v (prevents duplicate replicas racing).
func (e *Engine) targetedBy(v, s int32) bool {
	for _, srv := range e.servers {
		for _, c := range srv.copies {
			if c.video == v && c.target == s {
				return true
			}
		}
	}
	return false
}

// storageCap returns server s's storage capacity in Mb (0 = unbounded).
func (e *Engine) storageCap(s int) float64 {
	if len(e.cfg.ServerStorage) == 0 {
		return 0
	}
	return e.cfg.ServerStorage[s]
}

// storageUsed returns server s's storage consumption: the static layout
// plus runtime replicas, unless a cold recovery wiped the server — then
// only replicas installed since the wipe count.
func (e *Engine) storageUsed(s int) float64 {
	if e.staticWiped != nil && e.staticWiped[s] {
		return e.extraUsed[s]
	}
	return e.layout.Used(s) + e.extraUsed[s]
}

// finishCopy installs the completed replica and retires the job.
func (e *Engine) finishCopy(s *server, c *copyJob, t float64) {
	// Remove from the source's job list; its stored wake key goes with
	// it, so the source's wake index must be repaired before reuse.
	for i, x := range s.copies {
		if x == c {
			s.copies[i] = s.copies[len(s.copies)-1]
			s.copies[len(s.copies)-1] = nil
			s.copies = s.copies[:len(s.copies)-1]
			break
		}
	}
	s.ln.wakeDirty = true
	delete(e.copying, c.video)
	// Install the merged holder list.
	merged := append([]int32(nil), e.holders(int(c.video))...)
	merged = append(merged, c.target)
	if e.extraHolders == nil {
		e.extraHolders = make(map[int32][]int32)
	}
	e.extraHolders[c.video] = merged
	e.extraUsed[c.target] += c.size
	e.metrics.ReplicationsCompleted++
	e.metrics.ReplicatedMb += c.size
	if e.obs != nil {
		e.obs.OnReplicate(t, int(c.video), int(c.source), int(c.target))
	}
	if e.audit != nil {
		e.auditFail(e.audit.Replication(t, c.video, c.source, c.target, c.size))
	}
}

// abortCopies cancels every copy job sourced from or targeting a failed
// server.
func (e *Engine) abortCopies(failed *server) {
	// Jobs sourced here.
	for _, c := range failed.copies {
		delete(e.copying, c.video)
		e.metrics.ReplicationsAborted++
	}
	failed.copies = nil
	failed.ln.wakeDirty = true
	// Jobs targeting the failed server from elsewhere. Removing a job
	// removes its stored wake key, so each pruned source's wake index
	// goes dirty (its scheduled wake event stays valid — it just fires
	// at the aborted job's old key and reallocates, exactly as before).
	for _, s := range e.servers {
		if s == failed {
			continue
		}
		kept := s.copies[:0]
		for _, c := range s.copies {
			if c.target == failed.id {
				delete(e.copying, c.video)
				e.metrics.ReplicationsAborted++
				s.ln.wakeDirty = true
				continue
			}
			kept = append(kept, c)
		}
		for i := len(kept); i < len(s.copies); i++ {
			s.copies[i] = nil
		}
		s.copies = kept
	}
}

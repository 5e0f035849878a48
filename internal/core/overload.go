package core

// Traffic classes and graceful load shedding (see Config.Classes /
// Config.Shed). Classes partition the arrival stream into priority
// tiers: each arrival draws a class from its own split-RNG stream (one
// draw per arrival, admitted or not, so the stream stays aligned
// regardless of outcomes — the same discipline drawClientCaps follows),
// and the class picks the request's admission selector and retry
// patience. The shed controller sits in front of admission: at every
// arrival it re-evaluates instantaneous utilization and, at or above
// the watermark, rejects arrivals of every class but the highest before
// they reach the selector, the retry queue, or replication.

// drawTrafficClass draws the arriving request's traffic class, or -1
// when the run is classless. Classless runs make no draw at all, so
// enabling classes never perturbs any other random stream.
func (e *Engine) drawTrafficClass() int32 {
	if e.trafficAlias == nil {
		return -1
	}
	return int32(e.trafficAlias.Sample(e.trafficRNG))
}

// classSelector returns the admission selector for a traffic class:
// the class's named selector when it has one, the engine default
// otherwise (and always the default for classless runs, class < 0).
// Each class builds its own on first use, mirroring Engine.selector.
func (e *Engine) classSelector(class int32) ServerSelector {
	if class < 0 || e.cfg.Classes[class].Selector == "" {
		return e.selector()
	}
	if e.classSel[class] == nil {
		e.classSel[class] = selectors[e.cfg.Classes[class].Selector]()
	}
	return e.classSel[class]
}

// classPatience returns the retry patience for a traffic class: the
// class override when set, the global Retry.Patience default otherwise.
func (e *Engine) classPatience(class int32) float64 {
	if class >= 0 {
		if p := e.cfg.Classes[class].RetryPatience; p > 0 {
			return p
		}
	}
	return e.retryPatience()
}

// shedUtilization returns the cluster's instantaneous utilization as
// the shed controller sees it: the minimum-flow bandwidth committed to
// unfinished streams over the effective capacity of the live servers.
// Browned-out servers contribute their dimmed bandwidth and failed
// servers contribute nothing, so partial failures push utilization up
// exactly as load does. A fully-dead cluster counts as saturated.
func (e *Engine) shedUtilization() float64 {
	committed, capacity := 0.0, 0.0
	for _, s := range e.servers {
		if s.failed {
			continue
		}
		committed += float64(s.load()) * e.cfg.ViewRate
		capacity += s.bandwidth
	}
	if capacity <= 0 {
		return 1
	}
	return committed / capacity
}

// shedArrival runs the shed controller for one arrival and reports
// whether the arrival must be rejected up front. The controller is a
// two-state machine re-evaluated per arrival: shedding engages while
// utilization ≥ watermark (each normal→shedding transition counts in
// SheddingActivated) and applies to every class except the highest
// (class 0). The caller does the rejection accounting.
func (e *Engine) shedArrival(video, class int32, t float64) bool {
	if !e.cfg.Shed.Enabled || class < 0 {
		return false
	}
	u := e.shedUtilization()
	active := u >= e.cfg.Shed.Watermark
	if active && !e.shedding {
		e.metrics.SheddingActivated++
	}
	e.shedding = active
	if !active || class == 0 {
		return false
	}
	if e.audit != nil {
		e.auditFail(e.audit.Shed(t, video, class, u, e.cfg.Shed.Watermark))
	}
	return true
}

// Package workload generates the request arrival process of the paper's
// evaluation (Section 4.1): Poisson arrivals whose rate is calibrated so
// that, were every request accepted, the system would be exactly 100%
// utilized — "the expected sum of the sizes of all requested videos is
// equal to the number of servers times the server bandwidth times the
// length of the simulation".
//
// That calibration places maximum stress on the admission controller and
// accentuates the differences between policies, which is the point of
// the study.
package workload

import (
	"fmt"

	"semicont/internal/catalog"
	"semicont/internal/rng"
)

// Request is one arrival: at time Arrival a client asks to view Video.
type Request struct {
	Arrival float64
	Video   int
}

// Generator produces a Poisson stream of video requests whose rate is
// modulated by a deterministic curve through thinning (see curve.go).
// The zero curve is the stationary process of the paper's evaluation.
type Generator struct {
	cat  *catalog.Catalog
	p    *rng.PCG
	rate float64 // arrivals per second at curve shape 1
	next float64

	// Thinning state. The generator looks ahead to the next surviving
	// candidate so Peek stays exact, staging its video in pendingVideo.
	curve        Curve
	maxShape     float64 // thinning envelope
	candidate    float64 // candidate-process clock, ≥ next
	pendingVideo int
}

// CalibratedRate returns the Poisson arrival rate λ (requests/second)
// at which the expected offered bandwidth equals totalBandwidth:
// λ · E[size of a requested video] = totalBandwidth, scaled by the
// load factor (1.0 reproduces the paper; other values support
// sensitivity studies).
func CalibratedRate(cat *catalog.Catalog, totalBandwidth, loadFactor float64) (float64, error) {
	if totalBandwidth <= 0 {
		return 0, fmt.Errorf("workload: total bandwidth must be positive, got %g", totalBandwidth)
	}
	if loadFactor <= 0 {
		return 0, fmt.Errorf("workload: load factor must be positive, got %g", loadFactor)
	}
	es := cat.ExpectedSize()
	if es <= 0 {
		return 0, fmt.Errorf("workload: catalog expected size %g", es)
	}
	return loadFactor * totalBandwidth / es, nil
}

// New returns a stationary generator with the given arrival rate,
// drawing videos from the catalog's popularity distribution and
// inter-arrival gaps from p: NewNonStationary at the zero curve. The
// first arrival occurs after one exponential gap, matching a Poisson
// process started at time zero.
func New(cat *catalog.Catalog, rate float64, p *rng.PCG) (*Generator, error) {
	return NewNonStationary(cat, rate, p, Curve{})
}

// Rate returns the arrival rate in requests per second.
func (g *Generator) Rate() float64 { return g.rate }

// Next returns the next request and advances the stream. The horizon is
// the caller's concern: keep calling until Arrival exceeds it.
func (g *Generator) Next() Request {
	r := Request{Arrival: g.next, Video: g.pendingVideo}
	g.advance()
	return r
}

// Peek returns the arrival time of the next request without consuming it.
func (g *Generator) Peek() float64 { return g.next }

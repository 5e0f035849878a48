// Package semicont is a simulation library for semi-continuous
// transmission in cluster-based video-on-demand servers, reproducing
//
//	S. Irani and N. Venkatasubramanian, "Semi-Continuous Transmission
//	for Cluster-Based Video Servers", IEEE CLUSTER 2001.
//
// A cluster of data servers streams constant-bit-rate videos to
// clients. Clients may own a staging buffer (disk) into which servers
// transmit ahead of playback with spare bandwidth (the EFTF scheduler),
// and the distribution controller may migrate active streams between
// replica holders to admit requests that would otherwise be rejected
// (dynamic request migration, DRM). The library models all of this as a
// deterministic fluid-flow discrete-event simulation and ships the
// placement strategies, workload generator, analytical model, and
// experiment harness needed to regenerate every table and figure of the
// paper's evaluation.
//
// # Quick start
//
//	sc := semicont.Scenario{
//	    System:       semicont.SmallSystem(),
//	    Policy:       semicont.PolicyP4(), // even placement + DRM + 20% staging
//	    Theta:        0.27,                // Zipf skew used in prior studies
//	    HorizonHours: 100,
//	    Seed:         1,
//	}
//	res, err := semicont.Run(sc)
//	// res.Utilization, res.Accepted, res.Rejected, ...
//
// See DESIGN.md for the model specification and EXPERIMENTS.md for the
// reproduction results.
package semicont

import (
	"fmt"
	"math"
)

// finite reports whether v is an ordinary number. NaN and ±Inf slip
// through ordered comparisons like v <= 0, so every Validate in this
// package checks explicitly: a scenario that validates must build and
// run (the fuzz targets enforce exactly that contract).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// System describes the hardware of a cluster (the rows of the paper's
// Figure 3): how many servers, their bandwidth and storage, and the
// video library they serve.
type System struct {
	// Name labels the system in reports ("small", "large", …).
	Name string

	// NumServers is the cluster size.
	NumServers int

	// ServerBandwidth is each server's transmission capacity in Mb/s.
	// Bandwidths, when non-nil, overrides it per server (heterogeneous
	// clusters); its length must equal NumServers.
	ServerBandwidth float64
	Bandwidths      []float64

	// DiskCapacity is each server's storage in Mb (decimal units:
	// 1 GB = 8000 Mb). Capacities, when non-nil, overrides it per
	// server.
	DiskCapacity float64
	Capacities   []float64

	// NumVideos is the library size.
	NumVideos int

	// MinVideoLength and MaxVideoLength bound the uniformly distributed
	// playback lengths, in seconds.
	MinVideoLength float64
	MaxVideoLength float64

	// AvgCopies is the mean number of replicas per video (≈2.2 in the
	// paper).
	AvgCopies float64

	// ViewRate is b_view in Mb/s (3 Mb/s throughout the paper).
	ViewRate float64
}

// SmallSystem returns the paper's small configuration (Figure 3): a
// five-server cluster delivering short clips — 100 Mb/s and 100 GB per
// server, 10–30 minute videos.
func SmallSystem() System {
	return System{
		Name:            "small",
		NumServers:      5,
		ServerBandwidth: 100,
		DiskCapacity:    800_000, // 100 GB
		NumVideos:       100,
		MinVideoLength:  600,  // 10 min
		MaxVideoLength:  1800, // 30 min
		AvgCopies:       2.2,
		ViewRate:        3,
	}
}

// LargeSystem returns the paper's large configuration (Figure 3): a
// twenty-server cluster delivering feature-length movies — 300 Mb/s and
// 150 GB per server, 1–2 hour videos.
func LargeSystem() System {
	return System{
		Name:            "large",
		NumServers:      20,
		ServerBandwidth: 300,
		DiskCapacity:    1_200_000, // 150 GB
		NumVideos:       100,
		MinVideoLength:  3600, // 1 h
		MaxVideoLength:  7200, // 2 h
		AvgCopies:       2.2,
		ViewRate:        3,
	}
}

// ScaleSystem returns a cluster of n 300 Mb/s servers serving a large
// short-clip library — the `*-large` experiment family's system. At
// n = 200 the calibrated arrival rate is ≈16.7 requests/second
// (≈60,000 per simulated hour), so the paper-default 100-hour horizon
// yields ~6×10^6 requests per trial and 167 hours yield 10^7; the
// streaming metrics layer keeps memory bounded regardless.
func ScaleSystem(n int) System {
	return System{
		Name:            fmt.Sprintf("scale-%d", n),
		NumServers:      n,
		ServerBandwidth: 300,
		DiskCapacity:    4_000_000, // 500 GB
		NumVideos:       500,
		MinVideoLength:  600,  // 10 min
		MaxVideoLength:  1800, // 30 min
		AvgCopies:       2.2,
		ViewRate:        3,
	}
}

// SingleServer returns a one-server system with the given
// server-to-view bandwidth ratio, used by the SVBR validation
// experiment against the Erlang-B model.
func SingleServer(svbr int) System {
	return System{
		Name:            fmt.Sprintf("svbr-%d", svbr),
		NumServers:      1,
		ServerBandwidth: float64(svbr) * 3,
		DiskCapacity:    8_000_000, // 1000 GB
		NumVideos:       50,
		MinVideoLength:  600,  // 10 min
		MaxVideoLength:  1800, // 30 min
		AvgCopies:       1,
		ViewRate:        3,
	}
}

// bandwidths returns the per-server bandwidth vector.
func (s System) bandwidths() []float64 {
	if s.Bandwidths != nil {
		return s.Bandwidths
	}
	out := make([]float64, s.NumServers)
	for i := range out {
		out[i] = s.ServerBandwidth
	}
	return out
}

// capacities returns the per-server storage vector.
func (s System) capacities() []float64 {
	if s.Capacities != nil {
		return s.Capacities
	}
	out := make([]float64, s.NumServers)
	for i := range out {
		out[i] = s.DiskCapacity
	}
	return out
}

// TotalBandwidth returns the aggregate cluster bandwidth in Mb/s.
func (s System) TotalBandwidth() float64 {
	t := 0.0
	for _, b := range s.bandwidths() {
		t += b
	}
	return t
}

// SVBR returns the server-to-view bandwidth ratio of (homogeneous)
// server 0 — the crucial utilization parameter of Section 3.2.
func (s System) SVBR() float64 { return s.bandwidths()[0] / s.ViewRate }

// Validate reports configuration errors.
func (s System) Validate() error {
	switch {
	case s.NumServers <= 0:
		return fmt.Errorf("semicont: NumServers must be positive, got %d", s.NumServers)
	case s.Bandwidths != nil && len(s.Bandwidths) != s.NumServers:
		return fmt.Errorf("semicont: %d bandwidths for %d servers", len(s.Bandwidths), s.NumServers)
	case s.Capacities != nil && len(s.Capacities) != s.NumServers:
		return fmt.Errorf("semicont: %d capacities for %d servers", len(s.Capacities), s.NumServers)
	case s.Bandwidths == nil && !(finite(s.ServerBandwidth) && s.ServerBandwidth > 0):
		return fmt.Errorf("semicont: ServerBandwidth must be positive, got %g", s.ServerBandwidth)
	case s.Capacities == nil && !(finite(s.DiskCapacity) && s.DiskCapacity > 0):
		return fmt.Errorf("semicont: DiskCapacity must be positive, got %g", s.DiskCapacity)
	case s.NumVideos <= 0:
		return fmt.Errorf("semicont: NumVideos must be positive, got %d", s.NumVideos)
	case !finite(s.MinVideoLength) || !finite(s.MaxVideoLength) ||
		s.MinVideoLength <= 0 || s.MaxVideoLength < s.MinVideoLength:
		return fmt.Errorf("semicont: invalid video length range [%g, %g]", s.MinVideoLength, s.MaxVideoLength)
	case !finite(s.AvgCopies) || s.AvgCopies < 1:
		return fmt.Errorf("semicont: AvgCopies %g < 1", s.AvgCopies)
	case s.AvgCopies > float64(s.NumServers):
		return fmt.Errorf("semicont: AvgCopies %g exceeds %d servers (one replica per server max)", s.AvgCopies, s.NumServers)
	case !(finite(s.ViewRate) && s.ViewRate > 0):
		return fmt.Errorf("semicont: ViewRate must be positive, got %g", s.ViewRate)
	}
	for i, b := range s.bandwidths() {
		if !finite(b) || b < s.ViewRate {
			return fmt.Errorf("semicont: server %d bandwidth %g below view rate %g", i, b, s.ViewRate)
		}
	}
	for i, c := range s.capacities() {
		if !(finite(c) && c > 0) {
			return fmt.Errorf("semicont: server %d capacity %g must be positive", i, c)
		}
	}
	return nil
}

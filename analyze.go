package semicont

import (
	"fmt"

	"semicont/internal/analytic"
)

// Analysis is the closed-form performance estimate for a scenario
// under continuous transmission (policy P1), extending the paper's
// single-server Erlang-B validation (Section 3.2) to the cluster.
type Analysis struct {
	// FixedPoint is the reduced-load (Erlang fixed-point) utilization
	// estimate. Its independence assumption makes it optimistic; the
	// E-ANA experiment quantifies by how much.
	FixedPoint float64
	// NoSharing treats every server as an isolated Erlang-B system
	// with its nominal traffic share — the partitioned end of the
	// sharing spectrum (heuristic lower bracket).
	NoSharing float64
	// CompleteSharing pools all slots into one loss system — an upper
	// bracket no replication scheme can beat.
	CompleteSharing float64
}

// Analyze computes the Analysis for a scenario, using exactly the
// catalog, placement, and calibrated arrival rate that Run would
// simulate for the same scenario and seed.
func Analyze(sc Scenario) (*Analysis, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sys := sc.System
	cat, lay, rate, err := sc.build()
	if err != nil {
		return nil, err
	}

	bws := sys.bandwidths()
	model := &analytic.ClusterModel{
		Slots:   make([]int, len(bws)),
		Load:    make([]float64, cat.Len()),
		Holders: make([][]int, cat.Len()),
	}
	for s, b := range bws {
		model.Slots[s] = int(b / sys.ViewRate)
		if model.Slots[s] < 1 {
			return nil, fmt.Errorf("semicont: server %d has no slots", s)
		}
	}
	for v := 0; v < cat.Len(); v++ {
		video := cat.Video(v)
		// Offered load of video v in Erlangs: arrival rate × share ×
		// holding time.
		model.Load[v] = rate * video.Prob * video.Length
		hs := lay.Holders(v)
		model.Holders[v] = make([]int, len(hs))
		for i, h := range hs {
			model.Holders[v][i] = int(h)
		}
	}
	sol, err := model.Solve()
	if err != nil {
		return nil, err
	}
	// Convert carried streams to carried bandwidth over true capacity
	// (a server's capacity is not an exact multiple of b_view).
	norm := sys.ViewRate / sys.TotalBandwidth()
	carried := 0.0
	for v, loss := range sol.VideoLoss {
		carried += model.Load[v] * (1 - loss)
	}
	lower, err := model.NoSharing()
	if err != nil {
		return nil, err
	}
	upper, err := model.CompleteSharing()
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		FixedPoint:      carried * norm,
		NoSharing:       lower * norm,
		CompleteSharing: upper * norm,
	}
	// The raw independence approximation can exceed the provable
	// complete-sharing ceiling (its known pathology with small sharing
	// groups); clip it to keep the estimate consistent.
	if a.FixedPoint > a.CompleteSharing {
		a.FixedPoint = a.CompleteSharing
	}
	return a, nil
}

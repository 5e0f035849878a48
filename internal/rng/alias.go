package rng

import "fmt"

// Alias is a Walker/Vose alias table for O(1) sampling from a fixed
// discrete distribution. The simulator draws hundreds of thousands of
// video identities per trial, so constant-time sampling matters.
type Alias struct {
	prob  []float64 // acceptance probability for each column
	alias []int32   // fallback index for each column
	n     int
}

// MaxAliasWeight is the largest weight NewAlias accepts.
const MaxAliasWeight = 1e308

// NewAlias builds an alias table from non-negative weights. Weights need
// not be normalized. It returns an error if no weight is positive, or if
// any weight is negative, NaN, or above MaxAliasWeight.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: alias table needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || w != w || w > MaxAliasWeight {
			return nil, fmt.Errorf("rng: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: all weights are zero")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		n:     n,
	}
	// Scale weights so the average is 1, then run Vose's algorithm.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are 1 up to rounding error.
	for _, l := range large {
		a.prob[l] = 1
	}
	for _, s := range small {
		a.prob[s] = 1
	}
	return a, nil
}

// N returns the number of outcomes.
func (a *Alias) N() int { return a.n }

// Sample draws an index in [0, N()) with probability proportional to the
// weight supplied at construction.
func (a *Alias) Sample(p *PCG) int {
	i := p.Intn(a.n)
	if p.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

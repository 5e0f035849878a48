// Package catalog models the video library of the cluster: each video
// has a playback length drawn uniformly from a configured range
// (Figure 3 of the paper: 10–30 minutes for the small system, 1–2 hours
// for the large one) and a size determined by the constant-bit-rate view
// bandwidth, size = length × b_view.
//
// The catalog also binds the Zipf-like popularity distribution (see
// zipfProbs) to the videos: video 0 is the most popular. Keeping
// popularity attached to the catalog lets placement strategies and the
// workload generator agree on which video is which. Libraries with
// hand-picked lengths and popularities (real deployments, tests) use
// FromVideos instead of the generated form.
package catalog

import (
	"fmt"
	"math"

	"semicont/internal/rng"
)

// Video describes one object in the library.
type Video struct {
	ID     int
	Length float64 // playback duration, seconds
	Size   float64 // object size, Mb (Length × view bandwidth)
	Prob   float64 // probability a request is for this video
}

// Catalog is the immutable video library for one simulation.
type Catalog struct {
	videos  []Video
	alias   *rng.Alias
	bview   float64
	avgSize float64
}

// Config describes how to generate a catalog.
type Config struct {
	NumVideos int     // number of distinct videos
	MinLength float64 // shortest playback length, seconds
	MaxLength float64 // longest playback length, seconds
	ViewRate  float64 // b_view, Mb/s
	Theta     float64 // Zipf θ (paper convention; 1 = uniform)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	switch {
	case c.NumVideos <= 0:
		return fmt.Errorf("catalog: NumVideos must be positive, got %d", c.NumVideos)
	case bad(c.MinLength) || c.MinLength <= 0:
		return fmt.Errorf("catalog: MinLength must be positive, got %g", c.MinLength)
	case bad(c.MaxLength) || c.MaxLength < c.MinLength:
		return fmt.Errorf("catalog: MaxLength %g < MinLength %g", c.MaxLength, c.MinLength)
	case bad(c.ViewRate) || c.ViewRate <= 0:
		return fmt.Errorf("catalog: ViewRate must be positive, got %g", c.ViewRate)
	case bad(c.Theta):
		return fmt.Errorf("catalog: Theta %g must be finite", c.Theta)
	case math.IsInf(float64(c.NumVideos)*c.MaxLength*c.ViewRate, 0):
		return fmt.Errorf("catalog: %d videos of up to %g s at %g Mb/s overflow the library size", c.NumVideos, c.MaxLength, c.ViewRate)
	case math.Pow(float64(c.NumVideos), c.Theta) > rng.MaxAliasWeight:
		// The Zipf weights i^(θ−1) peak at NumVideos^(θ−1); bounding
		// NumVideos times that keeps every weight and their sum finite,
		// so each normalized probability is a number.
		return fmt.Errorf("catalog: Theta %g overflows the Zipf weights of %d videos", c.Theta, c.NumVideos)
	}
	return nil
}

// Generate builds a catalog from cfg, drawing video lengths with p.
func Generate(cfg Config, p *rng.PCG) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	probs := zipfProbs(cfg.NumVideos, cfg.Theta)
	videos := make([]Video, cfg.NumVideos)
	for i := range videos {
		length := cfg.MinLength
		if cfg.MaxLength > cfg.MinLength {
			length = p.UniformRange(cfg.MinLength, cfg.MaxLength)
		}
		videos[i] = Video{
			ID:     i,
			Length: length,
			Size:   length * cfg.ViewRate,
			Prob:   probs[i],
		}
	}
	return FromVideos(videos, cfg.ViewRate)
}

// zipfProbs returns the Zipf-like popularity of n videos exactly as the
// paper parameterizes it (Section 4.1), most popular first:
//
//	p_i = c / i^(1-θ),  i = 1..n,  c = 1 / Σ_{i=1..n} 1/i^(1-θ)
//
// θ = 1 makes every video equally popular, θ = 0 is classic Zipf
// (p_i ∝ 1/i), and smaller θ is more skewed: the paper sweeps θ down to
// −1.5, i.e. p_i ∝ 1/i^2.5. This differs from the common Zipf exponent
// s of p_i ∝ 1/i^s: here s = 1−θ, so smaller θ means more skew.
func zipfProbs(n int, theta float64) []float64 {
	s := 1 - theta // conventional Zipf exponent
	probs := make([]float64, n)
	total := 0.0
	for i := range probs {
		w := math.Pow(float64(i+1), -s)
		probs[i] = w
		total += w
	}
	for i, w := range probs {
		probs[i] = w / total
	}
	return probs
}

// FromVideos builds a catalog from an explicit video list: lengths and
// request probabilities chosen by the caller. Sizes are recomputed from
// the lengths; probabilities must be non-negative and are normalized.
func FromVideos(videos []Video, viewRate float64) (*Catalog, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("catalog: no videos")
	}
	if viewRate <= 0 || math.IsNaN(viewRate) || math.IsInf(viewRate, 0) {
		return nil, fmt.Errorf("catalog: ViewRate must be positive, got %g", viewRate)
	}
	own := make([]Video, len(videos))
	weights := make([]float64, len(videos))
	totalProb, totalSize := 0.0, 0.0
	for i, v := range videos {
		if v.Length <= 0 || math.IsNaN(v.Length) || math.IsInf(v.Length, 0) {
			return nil, fmt.Errorf("catalog: video %d has length %g", i, v.Length)
		}
		if v.Prob < 0 || math.IsNaN(v.Prob) || math.IsInf(v.Prob, 0) {
			return nil, fmt.Errorf("catalog: video %d has probability %g", i, v.Prob)
		}
		own[i] = Video{ID: i, Length: v.Length, Size: v.Length * viewRate, Prob: v.Prob}
		if math.IsInf(own[i].Size, 0) {
			return nil, fmt.Errorf("catalog: video %d size overflows (length %g × rate %g)", i, v.Length, viewRate)
		}
		weights[i] = v.Prob
		totalProb += v.Prob
		totalSize += own[i].Size
	}
	if totalProb <= 0 {
		return nil, fmt.Errorf("catalog: no video has positive probability")
	}
	for i := range own {
		own[i].Prob /= totalProb
		weights[i] = own[i].Prob
	}
	alias, err := rng.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	return &Catalog{
		videos:  own,
		alias:   alias,
		bview:   viewRate,
		avgSize: totalSize / float64(len(own)),
	}, nil
}

// Len returns the number of videos.
func (c *Catalog) Len() int { return len(c.videos) }

// Video returns the video with the given id.
func (c *Catalog) Video(id int) Video { return c.videos[id] }

// Videos returns the full video list. Callers must not modify it.
func (c *Catalog) Videos() []Video { return c.videos }

// ViewRate returns b_view in Mb/s.
func (c *Catalog) ViewRate() float64 { return c.bview }

// AvgSize returns the mean object size in Mb. The paper expresses
// client staging buffers as a percentage of this quantity.
func (c *Catalog) AvgSize() float64 { return c.avgSize }

// Sample draws a video id according to popularity.
func (c *Catalog) Sample(p *rng.PCG) int { return c.alias.Sample(p) }

// ExpectedSize returns Σ p_i·Size_i, the mean size of a *requested*
// video (popularity-weighted, which differs from AvgSize when demand is
// skewed). The workload generator uses it to calibrate the arrival rate
// so the offered load equals cluster capacity.
func (c *Catalog) ExpectedSize() float64 {
	e := 0.0
	for _, v := range c.videos {
		e += v.Prob * v.Size
	}
	return e
}

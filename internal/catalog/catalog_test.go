package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"semicont/internal/rng"
)

func validConfig() Config {
	return Config{NumVideos: 50, MinLength: 600, MaxLength: 1800, ViewRate: 3, Theta: 0.271}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero videos", func(c *Config) { c.NumVideos = 0 }},
		{"negative videos", func(c *Config) { c.NumVideos = -1 }},
		{"zero min length", func(c *Config) { c.MinLength = 0 }},
		{"max below min", func(c *Config) { c.MaxLength = c.MinLength - 1 }},
		{"zero view rate", func(c *Config) { c.ViewRate = 0 }},
		{"sizes overflow", func(c *Config) { c.MaxLength = 1e308 }},
		{"Zipf weights overflow", func(c *Config) { c.Theta = 1000 }},
		{"Zipf weights near the float range", func(c *Config) { c.NumVideos, c.Theta = 100, 154.5 }},
	}
	for _, tc := range cases {
		cfg := validConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", tc.name)
		}
	}
	if err := validConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Every θ Validate accepts generates a catalog, up to the bound.
	for _, theta := range []float64{-1e300, -2, 0, 1, 2, 60, 150} {
		cfg := validConfig()
		cfg.NumVideos, cfg.Theta = 100, theta
		if err := cfg.Validate(); err != nil {
			t.Errorf("Theta %g rejected: %v", theta, err)
		}
		if _, err := Generate(cfg, rng.New(1)); err != nil {
			t.Errorf("Theta %g validated but failed to generate: %v", theta, err)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	cat, err := Generate(validConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 50 {
		t.Fatalf("Len() = %d, want 50", cat.Len())
	}
	if cat.ViewRate() != 3 {
		t.Errorf("ViewRate() = %v, want 3", cat.ViewRate())
	}
	for i := 0; i < cat.Len(); i++ {
		v := cat.Video(i)
		if v.ID != i {
			t.Errorf("Video(%d).ID = %d", i, v.ID)
		}
		if v.Length < 600 || v.Length >= 1800 {
			t.Errorf("video %d length %v outside [600, 1800)", i, v.Length)
		}
		if math.Abs(v.Size-v.Length*3) > 1e-9 {
			t.Errorf("video %d size %v != length × rate %v", i, v.Size, v.Length*3)
		}
		if v.Prob <= 0 || v.Prob >= 1 {
			t.Errorf("video %d prob %v outside (0,1)", i, v.Prob)
		}
	}
}

func TestAvgSize(t *testing.T) {
	cat, err := Generate(validConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range cat.Videos() {
		sum += v.Size
	}
	if got, want := cat.AvgSize(), sum/float64(cat.Len()); math.Abs(got-want) > 1e-9 {
		t.Errorf("AvgSize() = %v, want %v", got, want)
	}
}

func TestExpectedSizeIsPopularityWeighted(t *testing.T) {
	cat, err := Generate(validConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, v := range cat.Videos() {
		want += v.Prob * v.Size
	}
	if got := cat.ExpectedSize(); math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedSize() = %v, want %v", got, want)
	}
}

func TestFixedLength(t *testing.T) {
	cfg := validConfig()
	cfg.MinLength, cfg.MaxLength = 1200, 1200
	cat, err := Generate(cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cat.Videos() {
		if v.Length != 1200 {
			t.Fatalf("length %v with degenerate range", v.Length)
		}
	}
	if cat.AvgSize() != 3600 {
		t.Errorf("AvgSize() = %v, want 3600", cat.AvgSize())
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(validConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(validConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		if a.Video(i) != b.Video(i) {
			t.Fatalf("video %d differs across identically seeded catalogs", i)
		}
	}
}

func TestSampleRespectsPopularity(t *testing.T) {
	cfg := validConfig()
	cfg.Theta = -1 // strongly skewed
	cat, err := Generate(cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	p := rng.New(7)
	counts := make([]int, cat.Len())
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[cat.Sample(p)]++
	}
	p0 := float64(counts[0]) / draws
	if math.Abs(p0-cat.Video(0).Prob) > 0.01 {
		t.Errorf("video 0 drawn with frequency %v, want ≈%v", p0, cat.Video(0).Prob)
	}
}

// Property: generation succeeds and preserves the length/size invariant
// over a range of configurations.
func TestGenerateProperty(t *testing.T) {
	prop := func(seed uint64, nRaw uint8, thetaRaw int8) bool {
		cfg := Config{
			NumVideos: int(nRaw%100) + 1,
			MinLength: 300,
			MaxLength: 7200,
			ViewRate:  3,
			Theta:     float64(thetaRaw) / 60,
		}
		cat, err := Generate(cfg, rng.New(seed))
		if err != nil {
			return false
		}
		total := 0.0
		for _, v := range cat.Videos() {
			if v.Size != v.Length*cfg.ViewRate {
				return false
			}
			total += v.Prob
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFromVideos(t *testing.T) {
	cat, err := FromVideos([]Video{
		{Length: 600, Prob: 3},
		{Length: 60, Prob: 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 {
		t.Fatalf("Len() = %d", cat.Len())
	}
	// Sizes recomputed, probabilities normalized, ids assigned.
	if cat.Video(0).Size != 1800 || cat.Video(1).Size != 180 {
		t.Errorf("sizes = %v, %v", cat.Video(0).Size, cat.Video(1).Size)
	}
	if math.Abs(cat.Video(0).Prob-0.75) > 1e-12 || math.Abs(cat.Video(1).Prob-0.25) > 1e-12 {
		t.Errorf("probs = %v, %v", cat.Video(0).Prob, cat.Video(1).Prob)
	}
	if cat.Video(1).ID != 1 {
		t.Errorf("ID = %d", cat.Video(1).ID)
	}
	if got := cat.AvgSize(); math.Abs(got-990) > 1e-9 {
		t.Errorf("AvgSize = %v", got)
	}
	if got := cat.ExpectedSize(); math.Abs(got-(0.75*1800+0.25*180)) > 1e-9 {
		t.Errorf("ExpectedSize = %v", got)
	}
}

func TestFromVideosErrors(t *testing.T) {
	cases := [][]Video{
		nil,
		{{Length: 0, Prob: 1}},
		{{Length: -5, Prob: 1}},
		{{Length: 10, Prob: -1}},
		{{Length: 10, Prob: 0}, {Length: 10, Prob: 0}},
		{{Length: 10, Prob: math.NaN()}},
	}
	for i, vs := range cases {
		if _, err := FromVideos(vs, 3); err == nil {
			t.Errorf("case %d accepted: %+v", i, vs)
		}
	}
	if _, err := FromVideos([]Video{{Length: 10, Prob: 1}}, 0); err == nil {
		t.Error("zero view rate accepted")
	}
}

func TestFromVideosSampling(t *testing.T) {
	cat, err := FromVideos([]Video{
		{Length: 100, Prob: 9},
		{Length: 100, Prob: 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := rng.New(9)
	hot := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if cat.Sample(p) == 0 {
			hot++
		}
	}
	frac := float64(hot) / draws
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("hot video frequency %v, want ≈0.9", frac)
	}
}

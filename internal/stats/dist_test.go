package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampler(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sampleMean draws n samples and returns their mean.
func sampleMean(d Dist, n int, seed int64) float64 {
	r := sampler(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestConstant(t *testing.T) {
	d := NewConstant(42)
	r := sampler(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 42 {
			t.Fatal("constant returned non-constant value")
		}
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	d := NewUniform(10, 20)
	r := sampler(2)
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 10 || v >= 20 {
			t.Fatalf("uniform sample %g out of [10, 20)", v)
		}
	}
	if got := sampleMean(d, 20000, 3); math.Abs(got-15) > 0.2 {
		t.Fatalf("uniform sample mean %g, want ~15", got)
	}
}

func TestUniformInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted uniform did not panic")
		}
	}()
	NewUniform(5, 1)
}

func TestNormalMoments(t *testing.T) {
	d := NewNormal(100, 15)
	r := sampler(4)
	var s Summary
	for i := 0; i < 50000; i++ {
		s.Add(d.Sample(r))
	}
	mean, std := s.Mean(), s.Std()
	if math.Abs(mean-100) > 0.5 {
		t.Fatalf("normal mean %g, want ~100", mean)
	}
	if math.Abs(std-15) > 0.5 {
		t.Fatalf("normal std %g, want ~15", std)
	}
}

func TestTruncNormalRespectsBounds(t *testing.T) {
	// The paper's task-duration distribution: mean 15, std 5, bounds [1, 30]
	// (minutes).
	d := NewTruncNormal(15, 5, 1, 30)
	r := sampler(5)
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 1 || v > 30 {
			t.Fatalf("truncated sample %g out of [1, 30]", v)
		}
	}
}

func TestTruncNormalMeanMatchesSamples(t *testing.T) {
	// The two-sided truncation formula puts the mean of N(15, 5) on [1, 30]
	// at 15.017; rejection sampling must reproduce it.
	if got := sampleMean(NewTruncNormal(15, 5, 1, 30), 50000, 6); math.Abs(got-15.017) > 0.15 {
		t.Fatalf("truncnormal empirical mean %g, want ~15.017", got)
	}
	// Symmetric truncation around mu leaves the mean at mu.
	if got := sampleMean(NewTruncNormal(15, 5, 0, 30), 50000, 6); math.Abs(got-15) > 0.15 {
		t.Fatalf("symmetric truncation: empirical mean %g, want ~15", got)
	}
}

func TestTruncNormalDegenerateSigma(t *testing.T) {
	// Every draw of N(50, 0) falls outside [1, 30]: Sample gives up
	// rejecting and clamps mu.
	d := NewTruncNormal(50, 0, 1, 30)
	if got := d.Sample(sampler(1)); got != 30 {
		t.Fatalf("degenerate sample %g, want clamped 30", got)
	}
}

func TestLogNormalMedianAndMean(t *testing.T) {
	d := LogNormalFromMedian(1200, 1.0)
	if math.Abs(math.Exp(d.Mu)-1200) > 1e-6 {
		t.Fatalf("median %g, want 1200", math.Exp(d.Mu))
	}
	r := sampler(7)
	vals := make([]float64, 40000)
	for i := range vals {
		vals[i] = d.Sample(r)
	}
	med := Quantile(vals, 0.5)
	if math.Abs(med-1200)/1200 > 0.05 {
		t.Fatalf("empirical median %g, want ~1200", med)
	}
	if math.Abs(sampleMean(d, 200000, 8)-d.Mean())/d.Mean() > 0.1 {
		t.Fatal("lognormal empirical mean far from analytical")
	}
}

func TestLogNormalHeavyTail(t *testing.T) {
	// Heavy tail: mean well above median for large sigma.
	d := LogNormalFromMedian(1000, 1.5)
	if d.Mean() < 2*1000 {
		t.Fatalf("lognormal(σ=1.5) mean %g should exceed 2× median 1000", d.Mean())
	}
}

func TestClamped(t *testing.T) {
	c := NewClamped(NewConstant(100), 0, 50)
	if c.Sample(sampler(1)) != 50 {
		t.Fatal("clamp did not apply")
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(vals, c.q); got != c.want {
			t.Fatalf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	// Quantile must not mutate its input.
	vals2 := []float64{3, 1, 2}
	Quantile(vals2, 0.5)
	if vals2[0] != 3 {
		t.Fatal("Quantile sorted caller slice in place")
	}
}

// Property: all distribution samples stay within declared supports.
func TestDistSupportProperty(t *testing.T) {
	prop := func(seed int64, lowRaw, widthRaw uint16) bool {
		low := float64(lowRaw)
		width := float64(widthRaw) + 1
		r := sampler(seed)
		u := NewUniform(low, low+width)
		tn := NewTruncNormal(low+width/2, width/4, low, low+width)
		for i := 0; i < 50; i++ {
			if v := u.Sample(r); v < low || v >= low+width {
				return false
			}
			if v := tn.Sample(r); v < low || v > low+width {
				return false
			}
			if NewLogNormal(1, 0.5).Sample(r) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile is monotonic in q.
func TestQuantileMonotonicProperty(t *testing.T) {
	prop := func(raw []uint16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		return Quantile(vals, a) <= Quantile(vals, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ExampleQuantile shows empirical quantiles with linear interpolation.
func ExampleQuantile() {
	waits := []float64{60, 300, 900, 1800, 7200}
	fmt.Printf("median %.0fs, p90 %.0fs\n", Quantile(waits, 0.5), Quantile(waits, 0.9))
	// Output:
	// median 900s, p90 5040s
}

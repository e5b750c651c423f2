package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty summary should report NaN")
	}
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g, want 5", s.Mean())
	}
	// Sample std of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std()-want) > 1e-12 {
		t.Fatalf("Std = %g, want %g", s.Std(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g, want 2/9", s.Min(), s.Max())
	}
	if s.Median() != 4.5 {
		t.Fatalf("Median = %g, want 4.5", s.Median())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %g, want 40", s.Sum())
	}
	if s.SEM() <= 0 {
		t.Fatal("SEM should be positive")
	}
}

func TestSummaryValuesCopy(t *testing.T) {
	var s Summary
	s.Add(1)
	vs := s.Values()
	vs[0] = 99
	if s.Mean() != 1 {
		t.Fatal("Values returned a live reference")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.AddAll([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{1, 2, 3})
	if mean != 2 {
		t.Fatalf("mean %g, want 2", mean)
	}
	if math.Abs(std-1) > 1e-12 {
		t.Fatalf("std %g, want 1", std)
	}
	mean, std = MeanStd(nil)
	if !math.IsNaN(mean) || std != 0 {
		t.Fatal("empty MeanStd should be (NaN, 0)")
	}
}

// Property: min <= percentile(p) <= max for any p, and mean within [min, max].
func TestSummaryBoundsProperty(t *testing.T) {
	prop := func(raw []int16, p uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, r := range raw {
			s.Add(float64(r))
		}
		pct := s.Percentile(float64(p % 101))
		return pct >= s.Min() && pct <= s.Max() &&
			s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

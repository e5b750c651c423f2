package stats

import (
	"fmt"
	"math"
)

// Summary accumulates observations and reports descriptive statistics. The
// zero value is ready to use.
type Summary struct {
	values []float64
}

// Add records one observation.
func (s *Summary) Add(v float64) { s.values = append(s.values, v) }

// AddAll records a batch of observations.
func (s *Summary) AddAll(vs []float64) { s.values = append(s.values, vs...) }

// N reports the number of observations.
func (s *Summary) N() int { return len(s.values) }

// Values returns a copy of the recorded observations.
func (s *Summary) Values() []float64 {
	cp := make([]float64, len(s.values))
	copy(cp, s.values)
	return cp
}

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Summary) Mean() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Std returns the sample standard deviation (n-1 denominator); it returns 0
// for fewer than two observations.
func (s *Summary) Std() float64 {
	if len(s.values) < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s.values)-1))
}

// SEM returns the standard error of the mean (Std/sqrt(n)).
func (s *Summary) SEM() float64 {
	if len(s.values) < 2 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(len(s.values)))
}

// Min returns the smallest observation, or NaN when empty.
func (s *Summary) Min() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation, or NaN when empty.
func (s *Summary) Max() float64 {
	if len(s.values) == 0 {
		return math.NaN()
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Median returns the 50th percentile, or NaN when empty.
func (s *Summary) Median() float64 { return s.Percentile(50) }

// Percentile returns the p-th percentile (0..100) with linear interpolation.
func (s *Summary) Percentile(p float64) float64 {
	return Quantile(s.values, p/100)
}

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 {
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f std=%.2f min=%.2f med=%.2f max=%.2f",
		s.N(), s.Mean(), s.Std(), s.Min(), s.Median(), s.Max())
}

// MeanStd computes the mean and sample standard deviation of values without
// copying them.
func MeanStd(values []float64) (mean, std float64) {
	s := Summary{values: values}
	return s.Mean(), s.Std()
}

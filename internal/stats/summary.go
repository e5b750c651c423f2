package stats

import "math"

// Summary accumulates observations and reports descriptive statistics. The
// zero value is ready to use.
type Summary struct {
	values []float64
}

// Add records one observation.
func (s *Summary) Add(v float64) { s.values = append(s.values, v) }

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

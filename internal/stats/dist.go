// Package stats provides the statistical distributions and summary
// aggregation used throughout the simulation substrate and the experiment
// harness: task durations and file sizes for skeleton applications, queue
// wait and background-load models for batch simulation, and mean/stddev/
// percentile aggregation for figures.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a real-valued random distribution. Implementations must be safe to
// share as values but the *rand.Rand passed to Sample carries all mutable
// state, so a Dist itself is immutable after construction.
type Dist interface {
	// Sample draws one value using the supplied source.
	Sample(r *rand.Rand) float64
}

// Constant is a degenerate distribution that always returns Value.
type Constant struct{ Value float64 }

// NewConstant returns the distribution that always yields v.
func NewConstant(v float64) Constant { return Constant{Value: v} }

// Sample implements Dist.
func (c Constant) Sample(*rand.Rand) float64 { return c.Value }

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct{ Low, High float64 }

// NewUniform returns a uniform distribution on [low, high). It panics if
// high < low.
func NewUniform(low, high float64) Uniform {
	if high < low {
		panic(fmt.Sprintf("stats: uniform bounds inverted [%g, %g]", low, high))
	}
	return Uniform{Low: low, High: high}
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Low + r.Float64()*(u.High-u.Low)
}

// Normal is the Gaussian distribution with the given mean and standard
// deviation.
type Normal struct{ Mu, Sigma float64 }

// NewNormal returns a Gaussian distribution. It panics on negative sigma.
func NewNormal(mu, sigma float64) Normal {
	if sigma < 0 {
		panic(fmt.Sprintf("stats: negative sigma %g", sigma))
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Sample implements Dist.
func (n Normal) Sample(r *rand.Rand) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// TruncNormal is a Gaussian truncated (by resampling) to [Low, High]. This is
// the task-duration distribution of the paper's experiments 2 and 4:
// mean 15 min, stddev 5 min, bounds [1, 30] min.
type TruncNormal struct {
	Mu, Sigma float64
	Low, High float64
}

// NewTruncNormal returns a truncated Gaussian. It panics if the bounds are
// inverted or sigma is negative.
func NewTruncNormal(mu, sigma, low, high float64) TruncNormal {
	if high < low {
		panic(fmt.Sprintf("stats: truncnormal bounds inverted [%g, %g]", low, high))
	}
	if sigma < 0 {
		panic(fmt.Sprintf("stats: negative sigma %g", sigma))
	}
	return TruncNormal{Mu: mu, Sigma: sigma, Low: low, High: high}
}

// Sample implements Dist by rejection; for pathological truncation windows it
// falls back to clamping after a bounded number of attempts.
func (t TruncNormal) Sample(r *rand.Rand) float64 {
	for i := 0; i < 1000; i++ {
		v := t.Mu + t.Sigma*r.NormFloat64()
		if v >= t.Low && v <= t.High {
			return v
		}
	}
	return math.Min(math.Max(t.Mu, t.Low), t.High)
}

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma)). Batch-queue
// wait times and job runtimes on production HPC machines are well described
// by heavy-tailed log-normals, which is what makes the paper's
// min-over-k-resources effect so strong.
type LogNormal struct{ Mu, Sigma float64 }

// NewLogNormal returns a log-normal with location mu and scale sigma (the
// parameters of the underlying normal).
func NewLogNormal(mu, sigma float64) LogNormal {
	if sigma < 0 {
		panic(fmt.Sprintf("stats: negative sigma %g", sigma))
	}
	return LogNormal{Mu: mu, Sigma: sigma}
}

// LogNormalFromMedian builds a log-normal from its median and sigma, a more
// intuitive parameterization for queue waits: median is the "typical" wait
// and sigma controls tail weight.
func LogNormalFromMedian(median, sigma float64) LogNormal {
	if median <= 0 {
		panic(fmt.Sprintf("stats: non-positive median %g", median))
	}
	return NewLogNormal(math.Log(median), sigma)
}

// Sample implements Dist.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns the analytical mean, exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Clamped restricts another distribution to [Low, High] by clamping samples.
type Clamped struct {
	Base      Dist
	Low, High float64
}

// NewClamped wraps base, clamping samples into [low, high].
func NewClamped(base Dist, low, high float64) Clamped {
	if high < low {
		panic(fmt.Sprintf("stats: clamp bounds inverted [%g, %g]", low, high))
	}
	return Clamped{Base: base, Low: low, High: high}
}

// Sample implements Dist.
func (c Clamped) Sample(r *rand.Rand) float64 {
	return math.Min(math.Max(c.Base.Sample(r), c.Low), c.High)
}

// Quantile returns the q-th empirical quantile (0 <= q <= 1) of values using
// linear interpolation between order statistics. It returns NaN for an empty
// input.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

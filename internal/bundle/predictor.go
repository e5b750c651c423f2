package bundle

import "math"

// QuantileBound is the predictive core of the bundle's queue-wait forecasts,
// a simplified QBETS (Queue Bounds Estimation from Time Series, Nurmi,
// Brevik & Wolski): given a history of observed waits in ascending order
// (Resource keeps its history sorted on insert), it returns a value w
// such that, under an i.i.d. assumption, the true q-quantile of the wait
// distribution is below w with the requested confidence.
//
// It selects the k-th order statistic where k is the conservative upper index
// of the binomial(n, q) count using the normal approximation:
//
//	k = ceil(n·q + z(confidence)·sqrt(n·q·(1-q)))
//
// The second return value is false when fewer than 8 observations exist —
// the paper's observation that queue-wait prediction "is extremely hard"
// starts with having no data.
func QuantileBound(sorted []float64, quantile, confidence float64) (float64, bool) {
	n := len(sorted)
	if n < 8 {
		return 0, false
	}
	if quantile <= 0 {
		quantile = 0.5
	}
	if quantile >= 1 {
		quantile = 0.99
	}
	if confidence <= 0 || confidence >= 1 {
		confidence = 0.95
	}
	z := normalQuantile(confidence)
	nf := float64(n)
	k := int(math.Ceil(nf*quantile + z*math.Sqrt(nf*quantile*(1-quantile))))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1], true
}

// normalQuantile returns the standard normal quantile via the
// Acklam/Beasley-Springer-Moro rational approximation, accurate to ~1e-9 —
// ample for confidence-index selection.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("bundle: normal quantile of p outside (0, 1)")
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const low, high = 0.02425, 1 - 0.02425
	switch {
	case p < low:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > high:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

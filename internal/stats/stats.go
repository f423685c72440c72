// Package stats provides the descriptive statistics and probability
// primitives the localization algorithms rely on: running
// mean/variance (Welford), medians and percentiles, histograms,
// empirical CDFs, and the Gaussian density at the heart of the paper's
// probabilistic approach.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Running accumulates a stream of samples and exposes their count,
// mean, variance and extrema without storing the samples. It uses
// Welford's numerically stable update. The zero value is ready to use.
type Running struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddAll incorporates every sample in xs.
func (r *Running) AddAll(xs []float64) {
	for _, x := range xs {
		r.Add(x)
	}
}

// N returns the number of samples seen.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (n-1 denominator), or
// 0 with fewer than two samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// PopVariance returns the population variance (n denominator), or 0
// with no samples.
func (r *Running) PopVariance() float64 {
	if r.n == 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the unbiased sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest sample seen, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample seen, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Merge combines another accumulator into r, as if r had also seen all
// of o's samples (Chan et al. parallel update).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	delta := o.mean - r.mean
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(n)
	r.mean += delta * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// String summarises the accumulator.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		r.n, r.Mean(), r.StdDev(), r.min, r.max)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the unbiased sample standard deviation of xs, or 0
// with fewer than two samples.
func StdDev(xs []float64) float64 {
	var r Running
	r.AddAll(xs)
	return r.StdDev()
}

// Median returns the median of xs without reordering it, averaging the
// central pair for even lengths. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using
// linear interpolation between order statistics. It returns 0 for an
// empty slice and clamps p into range.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// GaussianPDF evaluates the normal density with the given mean and
// standard deviation at x. This is exactly the paper's §5.1 likelihood
//
//	value = exp(-(observation-training)² / 2σ²) / sqrt(2πσ²)
//
// A non-positive sigma is floored to MinSigma so a training point whose
// samples happened to be constant still yields a finite likelihood.
func GaussianPDF(x, mean, sigma float64) float64 {
	if sigma < MinSigma {
		sigma = MinSigma
	}
	d := (x - mean) / sigma
	return math.Exp(-d*d/2) / (sigma * math.Sqrt(2*math.Pi))
}

// LogGaussianPDF returns log(GaussianPDF(x, mean, sigma)). Working in
// log space keeps products of many per-AP likelihoods from
// underflowing. The explicit conversions round each product before the
// subtraction, which blocks fused multiply-adds, so the compiled radio
// map's floor terms have the same bits on every CPU.
func LogGaussianPDF(x, mean, sigma float64) float64 {
	if sigma < MinSigma {
		sigma = MinSigma
	}
	d := (x - mean) / sigma
	return float64(-d*d/2) - math.Log(sigma) - float64(0.5*math.Log(2*math.Pi))
}

// MinSigma is the smallest standard deviation the Gaussian primitives
// accept; measured RSSI always carries at least this much spread
// (quantisation alone contributes ~0.3 dB).
const MinSigma = 0.3

// ErrEmpty is returned by constructors that need at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Histogram is a fixed-width binned distribution over [Lo, Hi). Counts
// outside the range clamp into the edge bins, so no sample is lost —
// matching how RSSI histograms are built from quantised dBm readings.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds an empty histogram with the given bounds and bin
// count. It returns an error when hi ≤ lo or bins < 1.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram bounds [%v, %v) invalid", lo, hi)
	}
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least 1 bin, got %d", bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Bin returns the bin index x falls into, clamped to the edge bins.
func (h *Histogram) Bin(x float64) int {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	i := int(math.Floor((x - h.Lo) / w))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	return i
}

// Add counts one sample.
func (h *Histogram) Add(x float64) {
	h.Counts[h.Bin(x)]++
	h.total++
}

// Total returns the number of samples counted.
func (h *Histogram) Total() int { return h.total }

// Prob returns the smoothed probability of the bin containing x, with
// add-one (Laplace) smoothing so unseen bins keep non-zero mass — the
// histogram-method localizer multiplies these across APs.
func (h *Histogram) Prob(x float64) float64 {
	return (float64(h.Counts[h.Bin(x)]) + 1) /
		(float64(h.total) + float64(len(h.Counts)))
}

// Mode returns the midpoint of the most populated bin; ties break
// toward the lower bin. With no samples it returns the range midpoint.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(best)+0.5)*w
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. It returns ErrEmpty for an empty
// sample.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return &ECDF{sorted: cp}, nil
}

// At returns the fraction of samples ≤ x.
func (e *ECDF) At(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v with At(v) ≥ q, for
// q in (0, 1]. q ≤ 0 returns the minimum.
func (e *ECDF) Quantile(q float64) float64 {
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

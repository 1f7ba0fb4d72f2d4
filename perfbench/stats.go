package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one unlucky sample, not a property
// of the system, so the helper refuses to compute it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// which it sorts in place. It fails when fewer than minBeyond samples
// lie above the returned rank, so p90 needs at least 100 samples and
// p99 at least 1000.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile %.3g of no samples", q)
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %.3g outside (0,1)", q)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, fmt.Errorf("quantile %.3g of %d samples has %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	return samples[rank], nil
}

// median is the middle sample (mean of the middle two for even counts);
// medians need no tail, so any non-empty set qualifies.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

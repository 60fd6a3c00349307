package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the exact nearest-rank percentile of an ascending sample:
// the smallest element with at least p of the sample at or below it. No
// interpolation, so every reported latency is one that was measured.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the middle of the sample (the mean of the two middle elements
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	asc := sorted(xs)
	mid := len(asc) / 2
	if len(asc)%2 == 1 {
		return asc[mid]
	}
	return (asc[mid-1] + asc[mid]) / 2
}

// iqrFrac is the distance between the first and third quartile as a share
// of the median: the spread measure the benchmark's bounds are judged by.
func iqrFrac(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	asc := sorted(xs)
	m := median(asc)
	if m == 0 {
		return 0
	}
	return (quartile(asc, 3) - quartile(asc, 1)) / m
}

// quartile follows Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), the definition the driver applies to the runs.
func quartile(asc []float64, q int) float64 {
	n := len(asc)
	if n < 2 {
		return median(asc)
	}
	m := n + 1
	j := min(max(q*m/4, 1), n-1)
	delta := float64(q*m - j*4)
	return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
}

// tailLadder lists the tail percentiles a latency sample may be asked
// for, highest first.
var tailLadder = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten samples beyond it in a sample of n: a p99 read off
// fewer than 1000 samples is one or two outliers, not a percentile.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)-math.Ceil(p*float64(n)) >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// lapRates is the system throughput of each lap. Each client cuts its
// fixed op sequence into laps of lapOps ops and records the boundary
// times; lap j's rate is the sum of every client's rate over its own lap j
// (all clients are busy throughout, so per-client rates add). A burst from
// a noisy neighbour costs a lap, not the run.
func lapRates(lapOps []int, bounds [][]float64) []float64 {
	if len(bounds) == 0 {
		return nil
	}
	perLap := make([]float64, len(bounds[0])-1)
	for j := range perLap {
		for c, b := range bounds {
			if d := b[j+1] - b[j]; d > 0 {
				perLap[j] += float64(lapOps[c]) / d
			}
		}
	}
	return perLap
}

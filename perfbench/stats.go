package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of sorted values
// and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted) - rank
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	v, _ := percentile(s, 50)
	return v
}

// tailLadder lists the percentiles tail_ms may report, highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailPercentile reports the latency at the workload's tail percentile,
// or at the next lower rung when fewer than ten samples lie beyond it.
func tailPercentile(sorted []float64, want float64) (p, v float64, beyond int) {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		v, beyond := percentile(sorted, p)
		if beyond >= 10 || p == 50 {
			return p, v, beyond
		}
	}
	return 50, math.NaN(), 0
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be published.
const minBeyond = 10

// pct is one published percentile: the value, the quantile actually
// used (lower than the one asked for when the sample is too small) and
// the sample count.
type pct struct {
	Value float64
	Q     float64
	N     int
}

// label names the quantile used and the sample count, e.g. "p99,
// n=5000" or "p98.11 for p99, n=530".
func (p pct) label(want float64) string {
	if p.N == 0 {
		return "no samples"
	}
	if math.Abs(p.Q-want) < 1e-9 {
		return fmt.Sprintf("p%s, n=%d", qName(p.Q), p.N)
	}
	return fmt.Sprintf("p%s for p%s, n=%d", qName(p.Q), qName(want), p.N)
}

func qName(q float64) string {
	return fmt.Sprintf("%.4g", 100*q)
}

// percentile returns the q-quantile of xs by nearest rank, published
// only when at least minBeyond samples lie beyond it; otherwise it falls
// back to the highest quantile that has that many beyond it. With
// minBeyond or fewer samples no quantile qualifies and the result has
// Value 0. xs is sorted in place.
func percentile(xs []float64, q float64) pct {
	n := len(xs)
	if n <= minBeyond {
		return pct{Q: q, N: n}
	}
	sort.Float64s(xs)
	if float64(n)*(1-q) < minBeyond-1e-9 {
		q = 1 - float64(minBeyond)/float64(n)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	return pct{Value: xs[rank-1], Q: q, N: n}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for
// an even count); NaN for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples the tail percentile must leave
// above it: a tail read off fewer samples is one or two outliers.
const tailBeyond = 10

// tail is the highest nearest-rank percentile of a sample with at least
// tailBeyond samples beyond it.
type tail struct {
	Value float64 `json:"value"`
	// Pct is the percentile the value sits at; Beyond the samples above
	// it; N the sample count.
	Pct    float64 `json:"pct"`
	Beyond int     `json:"beyond"`
	N      int     `json:"n"`
}

// tailOf returns the highest nearest-rank percentile of xs that has at
// least tailBeyond samples beyond it: the value of rank n-tailBeyond,
// at percentile 100*(n-tailBeyond)/n. ok is false when xs has too few
// samples for any percentile to qualify.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	t.N = n
	if n <= tailBeyond {
		return t, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - tailBeyond
	t.Value = s[rank-1]
	t.Pct = 100 * float64(rank) / float64(n)
	t.Beyond = tailBeyond
	return t, true
}

// geo is a geometric mean over cells together with how many cells it
// covers and how many were degenerate. A degenerate cell (zero,
// negative, NaN or infinite) has no logarithm; it is left out of the
// product but always counted, so a report never hides it.
type geo struct {
	Value      float64 `json:"value"`
	Cells      int     `json:"cells"`
	Degenerate int     `json:"degenerate"`
}

// geoMean returns the geometric mean of the well-formed cells of xs.
// Value is NaN when no cell is well formed.
func geoMean(xs []float64) geo {
	g := geo{Cells: len(xs)}
	var sum float64
	var used int
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			g.Degenerate++
			continue
		}
		sum += math.Log(x)
		used++
	}
	if used == 0 {
		g.Value = math.NaN()
		return g
	}
	g.Value = math.Exp(sum / float64(used))
	return g
}

// arithMean returns the arithmetic mean of the well-formed cells of xs,
// counting the degenerate ones as geoMean does.
func arithMean(xs []float64) geo {
	g := geo{Cells: len(xs)}
	var sum float64
	var used int
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			g.Degenerate++
			continue
		}
		sum += x
		used++
	}
	if used == 0 {
		g.Value = math.NaN()
		return g
	}
	g.Value = sum / float64(used)
	return g
}

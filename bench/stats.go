package main

import (
	"math"
	"sort"
)

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method),
// so the spreads printed here are the ones the acceptance check computes.
// v need not be sorted and is not modified. Fewer than two values have
// no spread: all three quartiles are the value itself (0 for none).
func quartiles(v []float64) (q1, q2, q3 float64) {
	m := len(v)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// percentile returns the p-th quantile (p in [0,1]) of an ascending
// slice by linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// supportedTail lowers a wanted tail percentile to the highest one that
// still has at least ten of the n samples beyond it; a tail read off
// fewer samples is mostly noise. It never goes below the median.
func supportedTail(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - 10/float64(n)
	if p > want {
		p = want
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// summary is one metric's value over a run's slices.
type summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Unit  string  `json:"unit"`
}

func summarize(v []float64, unit string) summary {
	q1, q2, q3 := quartiles(v)
	return summary{Value: q2, Q1: q1, Q3: q3, Unit: unit}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

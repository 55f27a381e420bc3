package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile interpolates linearly between order statistics (the "inclusive"
// method): q=0.25/0.75 give the quartiles the result files carry.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile reports the highest percentile of vs that still has at
// least ten samples beyond it (choosing-metrics §1), and which percentile
// that is. With fewer than 20 samples the median is all the data supports.
func tailPercentile(vs []float64) (value, pct float64) {
	n := len(vs)
	if n < 20 {
		return median(vs), 50
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return s[idx], 100 * float64(idx+1) / float64(n)
}

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// summary is one metric's value across the measured rounds of a run: the
// reported value is the median of the per-round values, the quartiles say
// how far the rounds disagreed.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Rounds  []float64 `json:"rounds"`
	Samples int       `json:"samples"`
}

func summarize(unit string, rounds []float64, samples int) summary {
	return summary{
		Unit:    unit,
		Value:   median(rounds),
		Q1:      quantile(rounds, 0.25),
		Q3:      quantile(rounds, 0.75),
		Rounds:  rounds,
		Samples: samples,
	}
}

// spread is the quartile distance as a share of the median — the noise
// figure -compare holds against a metric's bound.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Value)
}

package main

import (
	"fmt"
	"sort"
)

// summary is how every timing in the benchmark is reported: the median
// over passes with the pass count, the quartiles and the highest
// percentile that still has at least ten samples beyond it (a tail
// estimated from fewer is a single pass's luck).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailP is the percentile Tail was taken at; 0 when no percentile
	// above the median has ten samples beyond it.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// quantile interpolates linearly between the order statistics of a
// sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 { return summarize(xs).Median }

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(s))*(1-p/100) >= 10 {
			out.TailP, out.Tail = p, quantile(s, p/100)
			break
		}
	}
	return out
}

func (s summary) String() string {
	tail := "-"
	if s.TailP > 0 {
		tail = fmt.Sprintf("p%g=%.4g", s.TailP, s.Tail)
	}
	return fmt.Sprintf("n=%d q1=%.4g q3=%.4g %s", s.N, s.Q1, s.Q3, tail)
}

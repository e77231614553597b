package streaming

// Histogram implements the distribution-related reducing functions
// (§6.1 "Distribution-related features"): ft_hist is the basis; f_cdf
// is the cumulative, normalised histogram; f_pdf the normalised
// histogram; ft_percent a quantile read off the cumulative counts.
// State is one uint32 counter per bin; per-sample work is one shift
// (power-of-two widths) or one division-free scaled multiply plus one
// increment.
type Histogram struct {
	width int64
	bins  []uint32
	n     uint64
}

// Observe increments the bin for the sample. Values past the last
// bin clamp into it, negative values clamp into bin 0 (samples in
// SuperFE are sizes and times, so negatives indicate direction and
// are clamped deliberately).
func (h *Histogram) Observe(x, _ int64) {
	h.n++
	if x < 0 {
		h.bins[0]++
		return
	}
	idx := x / h.width
	if idx >= int64(len(h.bins)) {
		idx = int64(len(h.bins)) - 1
	}
	h.bins[idx]++
}

// AppendFeatures appends, depending on the view:
//
//	ft_hist:    raw bin counts
//	f_pdf:      bin counts normalised to sum 1
//	f_cdf:      cumulative normalised counts (monotone, ends at 1)
//	ft_percent: the single value at the view's quantile
func (h *Histogram) AppendFeatures(dst []float64, v View) []float64 {
	switch v.Func {
	case FPercent:
		return append(dst, h.Quantile(v.Quantile))
	case FPDF, FCDF:
		n := float64(h.n)
		if h.n == 0 {
			n = 1 // every bin is empty: emit zeros, not 0/0
		}
		var cum uint64
		for _, c := range h.bins {
			if v.Func == FPDF {
				cum = 0 // the density does not accumulate
			}
			cum += uint64(c)
			dst = append(dst, float64(cum)/n)
		}
	default: // ft_hist
		for _, c := range h.bins {
			dst = append(dst, float64(c))
		}
	}
	return dst
}

// Quantile returns the q-th quantile estimated from the histogram
// ("adding up those bins lower than that data", §6.1), with linear
// interpolation inside the bin that crosses the target count.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range h.bins {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return float64(int64(i)*h.width) + frac*float64(h.width)
		}
		cum = next
	}
	return float64(int64(len(h.bins)) * h.width)
}

// StateBytes reports 4 bytes per bin plus the sample counter.
func (h *Histogram) StateBytes() int { return 4*len(h.bins) + 8 }

// VariableHistogram implements the variable-bin-width refinement
// mentioned in §6.1 ("SuperFE also conducts variable bin width to
// improve the accuracy of features computed through the histogram"):
// bin edges grow geometrically so that fine-grained resolution is
// spent where inter-packet times and sizes actually concentrate
// (near zero) while the long tail is still covered. Edges[i] is the
// exclusive upper bound of bin i.
type VariableHistogram struct {
	edges []int64
	bins  []uint32
	n     uint64
}

// GeometricEdges returns bin upper bounds whose widths start at base
// and grow by the given integer factor per bin, e.g. base=100,
// factor=2, bins=8 yields 100, 300, 700, … — the variable-bin-width
// layout of §6.1, also reused by the telemetry histograms in
// internal/obs.
func GeometricEdges(base int64, factor int64, bins int) []int64 {
	edges := make([]int64, bins)
	width := base
	var edge int64
	for i := 0; i < bins; i++ {
		edge += width
		edges[i] = edge
		width *= factor
	}
	return edges
}

// NewVariableHistogram builds a histogram whose first bin has width
// base and whose widths grow by the given integer factor per bin,
// e.g. base=100, factor=2, bins=8 covers [0,100),[100,300),[300,700)…
func NewVariableHistogram(base int64, factor int64, bins int) *VariableHistogram {
	return &VariableHistogram{edges: GeometricEdges(base, factor, bins), bins: make([]uint32, bins)}
}

// Observe increments the bin containing the sample (binary search
// over the edges; ≤ 4 compares for 16 bins).
func (v *VariableHistogram) Observe(x int64) {
	v.n++
	lo, hi := 0, len(v.edges)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if x < v.edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	v.bins[lo]++
}

// Features returns the raw bin counts.
func (v *VariableHistogram) Features() []float64 {
	out := make([]float64, len(v.bins))
	for i, c := range v.bins {
		out[i] = float64(c)
	}
	return out
}

// StateBytes reports the bin counters plus edges.
func (v *VariableHistogram) StateBytes() int { return 4*len(v.bins) + 8*len(v.edges) + 8 }

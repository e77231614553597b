package baseline

import (
	"math"
	"math/bits"

	"superfe/internal/streaming"
)

// The oracle's reducing functions: one private state per reduce spec,
// each a Go value with its own fields and its own update code. They are
// the reference the NIC's record kernels (streaming.Kernel) are held to
// bit for bit (TestKernelsMatchReducers), so they share no code with
// the kernels: only the definitions of streaming.Func, Params and View,
// the arithmetic both legs must compute alike (streaming.DecayFactor,
// Hash32, HLLEstimate), and the damped windows the naive ablation
// replays too (streaming.DampedWelford, Damped2D).
// TestNamesOnlyTheSharedContract holds that line.
//
// A reducer observes a stream of int64 samples one at a time, with
// each sample's time in ns (only the damped families read it), keeps
// O(1) or O(bins) state, and appends the feature value(s) of the view v
// selects (most emit one, ft_hist one per bin, f_array the whole
// sequence). A state lives as long as its group; there is no reset.
type reducer interface {
	Observe(x, ts int64)
	AppendFeatures(dst []float64, v streaming.View) []float64
}

// newReducer constructs the reducer of f with the given parameters,
// which the policy compiler has validated (streaming.Validate).
func newReducer(f streaming.Func, p streaming.Params) reducer {
	switch f {
	case streaming.FSum:
		return &sum{}
	case streaming.FMean, streaming.FVar, streaming.FStd:
		return &welford{}
	case streaming.FMax:
		return &extremum{max: true}
	case streaming.FMin:
		return &extremum{}
	case streaming.FKurtosis, streaming.FSkew:
		return &moments{}
	case streaming.FCard:
		b := p.HLLBits
		if b == 0 {
			b = streaming.DefaultHLLBits
		}
		return newHyperLogLog(b)
	case streaming.FArray:
		maxLen := p.MaxLen
		if maxLen == 0 {
			maxLen = streaming.DefaultMaxArray
		}
		return &array{maxLen: maxLen}
	case streaming.FHist, streaming.FPercent, streaming.FPDF, streaming.FCDF:
		return &histogram{width: p.BinWidth, bins: make([]uint32, p.Bins)}
	case streaming.FMag, streaming.FRadius, streaming.FCov, streaming.FPCC:
		return &bidirectional{}
	case streaming.FDWeight, streaming.FDMean, streaming.FDStd:
		return newDamped1D(p.Lambda)
	case streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC:
		return newDamped2D(p.Lambda)
	}
	panic("baseline: a reducing function without a reducer")
}

// sum implements f_sum: one add per sample.
type sum struct {
	n   uint64
	sum int64
}

func (s *sum) Observe(x, _ int64) { s.sum += x; s.n++ }

func (s *sum) AppendFeatures(dst []float64, _ streaming.View) []float64 {
	return append(dst, float64(s.sum))
}

// extremum implements f_max / f_min: one compare per sample.
type extremum struct {
	max   bool
	seen  bool
	value int64
}

func (e *extremum) Observe(x, _ int64) {
	if !e.seen {
		e.value, e.seen = x, true
		return
	}
	if e.max == (x > e.value) && x != e.value {
		e.value = x
	}
}

// AppendFeatures appends the extremum (0 if no samples were observed).
func (e *extremum) AppendFeatures(dst []float64, _ streaming.View) []float64 {
	return append(dst, float64(e.value))
}

// welford implements f_mean, f_var and f_std with Welford's
// single-pass algorithm (Equations 1-2 of the paper). State: n, mean,
// M2 (sum of squared deviations). The paper's formulation updates σ²
// directly; M2 = n·σ² is the numerically standard form and
// algebraically identical.
type welford struct {
	n    uint64
	mean float64
	m2   float64
}

func (w *welford) Observe(x, _ int64) {
	w.n++
	xf := float64(x)
	delta := xf - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (xf - w.mean)
}

// variance returns the running population variance.
func (w *welford) variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

func (w *welford) AppendFeatures(dst []float64, v streaming.View) []float64 {
	switch v.Func {
	case streaming.FVar:
		return append(dst, w.variance())
	case streaming.FStd:
		return append(dst, math.Sqrt(w.variance()))
	default:
		return append(dst, w.mean)
	}
}

// moments implements f_skew and f_kur with the one-pass extension of
// Welford's algorithm to third and fourth central moments.
type moments struct {
	n                uint64
	mean, m2, m3, m4 float64
}

func (m *moments) Observe(x, _ int64) {
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	xf := float64(x)
	delta := xf - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// AppendFeatures appends the sample skewness g1 or the excess kurtosis
// g2.
func (m *moments) AppendFeatures(dst []float64, v streaming.View) []float64 {
	if m.n < 2 || m.m2 == 0 {
		return append(dst, 0)
	}
	n := float64(m.n)
	if v.Func == streaming.FKurtosis {
		return append(dst, n*m.m4/(m.m2*m.m2)-3)
	}
	return append(dst, math.Sqrt(n)*m.m3/math.Pow(m.m2, 1.5))
}

// array implements f_array: it stores the raw sequence up to maxLen
// samples (the fixed feature length the deep-learning fingerprinting
// models expect, §4.2 direction sequences), discarding overflow.
type array struct {
	maxLen int
	data   []int64
}

func (a *array) Observe(x, _ int64) {
	if len(a.data) < a.maxLen {
		a.data = append(a.data, x)
	}
}

// AppendFeatures appends the sequence zero-padded to maxLen, the
// fixed-length representation the WFP models consume.
func (a *array) AppendFeatures(dst []float64, _ streaming.View) []float64 {
	for _, v := range a.data {
		dst = append(dst, float64(v))
	}
	for i := len(a.data); i < a.maxLen; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// histogram implements the distribution-related reducing functions
// (§6.1 "Distribution-related features"): ft_hist is the basis; f_cdf
// the cumulative, normalised histogram; f_pdf the normalised
// histogram; ft_percent a quantile read off the cumulative counts.
// State is one uint32 counter per bin.
type histogram struct {
	width int64
	bins  []uint32
	n     uint64
}

// Observe increments the bin for the sample. Values past the last bin
// clamp into it, negative values into bin 0 (samples in SuperFE are
// sizes and times, so negatives indicate direction and are clamped
// deliberately).
func (h *histogram) Observe(x, _ int64) {
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
func (h *histogram) AppendFeatures(dst []float64, v streaming.View) []float64 {
	switch v.Func {
	case streaming.FPercent:
		return append(dst, h.quantile(v.Quantile))
	case streaming.FPDF, streaming.FCDF:
		n := float64(h.n)
		if h.n == 0 {
			n = 1 // every bin is empty: emit zeros, not 0/0
		}
		var cum uint64
		for _, c := range h.bins {
			if v.Func == streaming.FPDF {
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

// quantile returns the q-th quantile estimated from the histogram
// ("adding up those bins lower than that data", §6.1), with linear
// interpolation inside the bin that crosses the target count.
func (h *histogram) quantile(q float64) float64 {
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

// hyperLogLog implements f_card (§6.1 "Cardinality"): the number of
// distinct elements in a group, estimated with the HyperLogLog sketch
// of Flajolet et al. A 32-bit hash of each sample is split: the first
// k bits index a bucket, the remaining 32-k bits are scanned for
// leading zeros; each bucket keeps the maximum leading-zero run (+1),
// and the harmonic mean of the buckets yields the estimate.
type hyperLogLog struct {
	bits    int
	buckets []uint8
}

// newHyperLogLog creates a sketch with 2^b buckets, b in [2, 16].
func newHyperLogLog(b int) *hyperLogLog {
	return &hyperLogLog{bits: b, buckets: make([]uint8, 1<<b)}
}

func (h *hyperLogLog) Observe(x, _ int64) {
	v := streaming.Hash32(x)
	idx := v >> (32 - h.bits)
	rest := v << h.bits // remaining 32-k bits, left aligned
	// Leading-zero run among the remaining bits, +1, capped.
	rho := uint8(bits.LeadingZeros32(rest|1)) + 1
	if rho > h.buckets[idx] {
		h.buckets[idx] = rho
	}
}

// estimate returns the cardinality estimate.
func (h *hyperLogLog) estimate() float64 {
	var s float64
	zeros := 0
	for _, b := range h.buckets {
		s += 1 / float64(uint64(1)<<b)
		if b == 0 {
			zeros++
		}
	}
	return streaming.HLLEstimate(len(h.buckets), s, zeros)
}

func (h *hyperLogLog) AppendFeatures(dst []float64, _ streaming.View) []float64 {
	return append(dst, h.estimate())
}

// bidirectional implements the 2D statistics over bidirectional
// sequences from Appendix A (f_mag, f_radius, f_cov, f_pcc), the
// features Kitsune and HELAD compute over the two directions of a
// channel or socket: the forward and backward sample streams are two
// correlated 1D streams i and j,
//
//	magnitude = sqrt(mean_i² + mean_j²)
//	radius    = sqrt(var_i²  + var_j²)
//	cov       = SP/n where SP accumulates the product of each new
//	            sample's residual with the other stream's most
//	            recent residual (Kitsune's incremental 2D statistic)
//	pcc       = cov / (std_i · std_j)
//
// Direction is carried in the sample's sign: positive samples belong
// to the forward stream, negative samples (magnitude |x|) to the
// backward stream, matching the f_direction mapping function's ±1
// factors (§4.2 Figure 5).
type bidirectional struct {
	fwd welford
	bwd welford
	// Residual bookkeeping for the incremental covariance.
	lastResFwd float64
	lastResBwd float64
	sp         float64 // sum of residual products
	nPairs     uint64
}

func (b *bidirectional) Observe(x, ts int64) {
	if x >= 0 {
		res := float64(x) - b.fwd.mean
		b.fwd.Observe(x, ts)
		b.lastResFwd = res
		b.sp += res * b.lastResBwd
	} else {
		v := -x
		res := float64(v) - b.bwd.mean
		b.bwd.Observe(v, ts)
		b.lastResBwd = res
		b.sp += res * b.lastResFwd
	}
	b.nPairs++
}

// cov returns the approximate covariance SP/n.
func (b *bidirectional) cov() float64 {
	if b.nPairs == 0 {
		return 0
	}
	return b.sp / float64(b.nPairs)
}

// pcc returns the approximate Pearson correlation coefficient, clamped
// to [-1, 1].
func (b *bidirectional) pcc() float64 {
	denom := math.Sqrt(b.fwd.variance()) * math.Sqrt(b.bwd.variance())
	if denom == 0 {
		return 0
	}
	p := b.cov() / denom
	return math.Max(-1, math.Min(1, p))
}

func (b *bidirectional) AppendFeatures(dst []float64, v streaming.View) []float64 {
	switch v.Func {
	case streaming.FRadius:
		return append(dst, math.Sqrt(b.fwd.variance()*b.fwd.variance()+b.bwd.variance()*b.bwd.variance()))
	case streaming.FCov:
		return append(dst, b.cov())
	case streaming.FPCC:
		return append(dst, b.pcc())
	default:
		return append(dst, math.Sqrt(b.fwd.mean*b.fwd.mean+b.bwd.mean*b.bwd.mean))
	}
}

// damped1D is the damped 1D statistics over one streaming.DampedWelford
// window: the weight, mean and stddev views.
type damped1D struct {
	w streaming.DampedWelford
}

func newDamped1D(lambda float64) *damped1D {
	return &damped1D{w: streaming.DampedWelford{Lambda: lambda}}
}

func (d *damped1D) Observe(x, ts int64) { d.w.ObserveAt(float64(x), ts) }

func (d *damped1D) AppendFeatures(dst []float64, v streaming.View) []float64 {
	switch v.Func {
	case streaming.FDMean:
		return append(dst, d.w.Mean())
	case streaming.FDStd:
		return append(dst, d.w.Std())
	default:
		return append(dst, d.w.Weight())
	}
}

// damped2D is the damped 2D statistics over one streaming.Damped2D pair:
// positive samples feed stream A (forward), negative samples stream B
// (backward) with magnitude |x|.
type damped2D struct {
	d streaming.Damped2D
}

func newDamped2D(lambda float64) *damped2D {
	return &damped2D{d: *streaming.NewDamped2D(lambda)}
}

func (r *damped2D) Observe(x, ts int64) {
	if x >= 0 {
		r.d.ObserveA(float64(x), ts)
	} else {
		r.d.ObserveB(float64(-x), ts)
	}
}

func (r *damped2D) AppendFeatures(dst []float64, v streaming.View) []float64 {
	switch v.Func {
	case streaming.FD2DRadius:
		return append(dst, r.d.Radius())
	case streaming.FD2DCov:
		return append(dst, r.d.Cov())
	case streaming.FD2DPCC:
		return append(dst, r.d.PCC())
	default:
		return append(dst, r.d.Magnitude())
	}
}

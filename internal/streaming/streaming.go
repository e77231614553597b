// Package streaming implements the one-pass streaming algorithms that
// SuperFE's FE-NIC uses to compute reducing functions (§6.1 of the
// paper, Appendix A Table 5).
//
// Every reducer observes a stream of int64 samples one at a time,
// keeps O(1) or O(bins) state, and can produce its feature value(s)
// at any point. This mirrors the constraint of SoC SmartNIC cores:
// restricted state, single pass, no floating point on the hot path.
//
// Alongside each streaming implementation the package provides the
// naïve counterpart (store-everything, two-pass) used by the Figure
// 15 ablation, so the memory/computation comparison in the paper can
// be reproduced directly.
//
//superfe:deterministic
package streaming

import (
	"fmt"
	"math"
)

// Reducer is the common interface of all reducing-function state.
// One state serves a whole family of reducing functions (see
// FamilyOf): Observe consumes one sample with its timestamp in ns
// (only the damped families read it); AppendFeatures appends the
// feature value(s) of
// the family member v selects to dst (most emit one, ft_hist emits
// one per bin, f_array the whole sequence) and returns the extended
// slice; StateBytes reports the state footprint in bytes, used by the
// NIC memory model and the ILP placement. A state lives as long as its
// group, and NIC groups never retire, so there is no reset.
type Reducer interface {
	Observe(x, ts int64)
	AppendFeatures(dst []float64, v View) []float64
	StateBytes() int
}

// View selects the family member AppendFeatures reads from a state.
// States of single-member families ignore it.
type View struct {
	Func     Func
	Quantile float64 // ft_percent: which quantile to report
}

// ViewOf returns the view of f with the given parameters.
func ViewOf(f Func, p Params) View { return View{Func: f, Quantile: p.Quantile} }

// Features returns the features v selects from r in a fresh slice —
// the convenience form of AppendFeatures for cold callers and tests.
func Features(r Reducer, v View) []float64 { return r.AppendFeatures(nil, v) }

// Func identifies a reducing function from Appendix A Table 5.
type Func uint8

// Reducing functions (Appendix A Table 5).
const (
	FSum Func = iota
	FMean
	FVar
	FStd
	FMax
	FMin
	FKurtosis
	FSkew
	FCard
	FArray
	FPDF
	FCDF
	FHist
	FPercent
	FMag    // magnitude of bidirectional sequences (Kitsune 2D stats)
	FRadius // radius of bidirectional sequences
	FCov    // covariance between bidirectional sequences
	FPCC    // correlation coefficient of bidirectional sequences
	numFuncs
)

// NumFuncs is the count of defined reducing functions.
const NumFuncs = int(numFuncs)

// String returns the policy-language name of the function.
func (f Func) String() string {
	switch f {
	case FSum:
		return "f_sum"
	case FMean:
		return "f_mean"
	case FVar:
		return "f_var"
	case FStd:
		return "f_std"
	case FMax:
		return "f_max"
	case FMin:
		return "f_min"
	case FKurtosis:
		return "f_kur"
	case FSkew:
		return "f_skew"
	case FCard:
		return "f_card"
	case FArray:
		return "f_array"
	case FPDF:
		return "f_pdf"
	case FCDF:
		return "f_cdf"
	case FHist:
		return "ft_hist"
	case FPercent:
		return "ft_percent"
	case FMag:
		return "f_mag"
	case FRadius:
		return "f_radius"
	case FCov:
		return "f_cov"
	case FPCC:
		return "f_pcc"
	}
	if n := dampedName(f); n != "" {
		return n
	}
	return fmt.Sprintf("f(%d)", uint8(f))
}

// Params carries the per-function parameters. Only the histogram
// family uses them (bin width and count, §4.2 Figure 4); f_array and
// the bidirectional functions use MaxLen as a safety cap on stored
// sequence length.
type Params struct {
	BinWidth int64 // ft_hist / ft_percent / f_pdf / f_cdf
	Bins     int
	Quantile float64 // ft_percent: which quantile to report, (0,1)
	MaxLen   int     // f_array cap; 0 means DefaultMaxArray
	HLLBits  int     // f_card: 2^bits buckets; 0 means DefaultHLLBits
	Lambda   float64 // fd_* damped functions: decay rate in 1/s
}

// Defaults for optional parameters.
const (
	DefaultMaxArray = 5000 // matches the AWF/DF/TF 5000-long direction sequences
	DefaultHLLBits  = 6    // 64 HyperLogLog buckets
)

// New constructs the streaming reducer for f with the given
// parameters. It returns an error for unknown functions or invalid
// parameters so the policy compiler can reject bad policies early.
func New(f Func, p Params) (Reducer, error) {
	switch f {
	case FSum:
		return &Sum{}, nil
	case FMean, FVar, FStd:
		return &Welford{}, nil
	case FMax:
		return &Extremum{max: true}, nil
	case FMin:
		return &Extremum{}, nil
	case FKurtosis, FSkew:
		return &Moments{}, nil
	case FCard:
		bits := p.HLLBits
		if bits == 0 {
			bits = DefaultHLLBits
		}
		return NewHyperLogLog(bits)
	case FArray:
		maxLen := p.MaxLen
		if maxLen < 0 {
			return nil, fmt.Errorf("streaming: f_array requires a non-negative cap (0: the default), got %d", p.MaxLen)
		}
		if maxLen == 0 {
			maxLen = DefaultMaxArray
		}
		return &Array{maxLen: maxLen}, nil
	case FHist, FPercent, FPDF, FCDF:
		if p.Bins <= 0 || p.BinWidth <= 0 {
			return nil, fmt.Errorf("streaming: %s requires positive bins and bin width, got bins=%d width=%d", f, p.Bins, p.BinWidth)
		}
		if f == FPercent && !(p.Quantile > 0 && p.Quantile < 1) { // NaN included
			return nil, fmt.Errorf("streaming: ft_percent requires quantile in (0,1), got %g", p.Quantile)
		}
		return &Histogram{width: p.BinWidth, bins: make([]uint32, p.Bins)}, nil
	case FMag, FRadius, FCov, FPCC:
		return &Bidirectional{}, nil
	case FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return newDamped(f, p)
	}
	return nil, fmt.Errorf("streaming: unknown reducing function %d", uint8(f))
}

// ProvisionedBytes returns the per-group state footprint a deployed
// (Micro-C) implementation provisions for f — the b_s input of the
// §6.2 placement ILP. It differs from a fresh reducer's StateBytes
// in two cases: f_array provisions a fixed resident window (the bulk
// sequence streams to external memory as it grows), and the damped
// statistics pack into 32-bit fixed-point words on the NFP.
func ProvisionedBytes(f Func, p Params) int {
	switch f {
	case FArray:
		return 512 // resident window; bulk spills to EMEM/DRAM
	case FDWeight, FDMean, FDStd:
		return 16 // packed (w, lin, sq, ts)
	case FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return 40 // two packed windows + residual product
	}
	r, err := New(f, p)
	if err != nil {
		return 16
	}
	return r.StateBytes()
}

// FeatureWidth returns how many feature values f emits given params.
// The policy compiler uses this to compute feature-vector dimensions
// (Table 3 of the paper).
func FeatureWidth(f Func, p Params) int {
	switch f {
	case FHist, FPDF, FCDF:
		return p.Bins
	case FArray:
		if p.MaxLen > 0 {
			return p.MaxLen
		}
		return DefaultMaxArray
	default:
		return 1
	}
}

// Family identifies the streaming state a reducing function is a view
// of. Functions with equal families read one state: fed the same
// samples, a shared state performs exactly the float operations a
// private copy per function would, so the FE-NIC keeps one state per
// family and source and observes it once per packet (§6.1: one piece
// of streaming state per statistic). Family is comparable.
type Family struct {
	Func   Func   // canonical member
	Params Params // the parameters that shape the state; view-only ones are zero
}

// FamilyOf returns the family of f with the given parameters.
func FamilyOf(f Func, p Params) Family {
	switch f {
	case FMean, FVar, FStd:
		return Family{Func: FMean}
	case FKurtosis, FSkew:
		return Family{Func: FSkew}
	case FMag, FRadius, FCov, FPCC:
		return Family{Func: FMag}
	case FHist, FPDF, FCDF, FPercent:
		return Family{Func: FHist, Params: Params{BinWidth: p.BinWidth, Bins: p.Bins}}
	case FDWeight, FDMean, FDStd:
		return Family{Func: FDWeight, Params: Params{Lambda: p.Lambda}}
	case FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return Family{Func: FD2DMag, Params: Params{Lambda: p.Lambda}}
	case FArray:
		return Family{Func: f, Params: Params{MaxLen: p.MaxLen}}
	case FCard:
		return Family{Func: f, Params: Params{HLLBits: p.HLLBits}}
	}
	return Family{Func: f}
}

// ---------------------------------------------------------------------------
// Simple reducers: sum, max, min.

// Sum implements f_sum: one 64-bit state, one add per sample.
type Sum struct {
	n   uint64
	sum int64
}

// Observe adds the sample.
func (s *Sum) Observe(x, _ int64) { s.sum += x; s.n++ }

// AppendFeatures appends the running sum.
func (s *Sum) AppendFeatures(dst []float64, _ View) []float64 { return append(dst, float64(s.sum)) }

// StateBytes reports 16 bytes (count + sum).
func (s *Sum) StateBytes() int { return 16 }

// Extremum implements f_max / f_min: one state, one compare per
// sample.
type Extremum struct {
	max   bool
	seen  bool
	value int64
}

// Observe folds the sample into the extremum.
func (e *Extremum) Observe(x, _ int64) {
	if !e.seen {
		e.value, e.seen = x, true
		return
	}
	if e.max == (x > e.value) && x != e.value {
		e.value = x
	}
}

// AppendFeatures appends the extremum (0 if no samples were observed).
func (e *Extremum) AppendFeatures(dst []float64, _ View) []float64 {
	return append(dst, float64(e.value))
}

// StateBytes reports 9 bytes (value + seen flag).
func (e *Extremum) StateBytes() int { return 9 }

// ---------------------------------------------------------------------------
// Welford's online mean/variance (Equations 1-2 of the paper).

// Welford implements f_mean, f_var and f_std with Welford's
// single-pass algorithm. State: n, mean, M2 (sum of squared
// deviations). The paper's Equation (1)-(2) formulation updates σ²
// directly; we keep M2 = n·σ² which is the numerically standard form
// and algebraically identical.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe folds one sample into the running moments.
func (w *Welford) Observe(x, _ int64) {
	w.n++
	xf := float64(x)
	delta := xf - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (xf - w.mean)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the running population variance.
func (w *Welford) Var() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// AppendFeatures appends the mean, variance or stddev.
func (w *Welford) AppendFeatures(dst []float64, v View) []float64 {
	switch v.Func {
	case FVar:
		return append(dst, w.Var())
	case FStd:
		return append(dst, math.Sqrt(w.Var()))
	default:
		return append(dst, w.mean)
	}
}

// StateBytes reports 24 bytes (n, mean, M2).
func (w *Welford) StateBytes() int { return 24 }

// ---------------------------------------------------------------------------
// Higher moments: skew and kurtosis.

// Moments implements f_skew and f_kur with the one-pass extension of
// Welford's algorithm to third and fourth central moments.
type Moments struct {
	n                uint64
	mean, m2, m3, m4 float64
}

// Observe folds one sample into the running central moments.
func (m *Moments) Observe(x, _ int64) {
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

// Skew returns the sample skewness g1.
func (m *Moments) Skew() float64 {
	if m.n < 2 || m.m2 == 0 {
		return 0
	}
	n := float64(m.n)
	return math.Sqrt(n) * m.m3 / math.Pow(m.m2, 1.5)
}

// Kurtosis returns the excess kurtosis g2.
func (m *Moments) Kurtosis() float64 {
	if m.n < 2 || m.m2 == 0 {
		return 0
	}
	n := float64(m.n)
	return n*m.m4/(m.m2*m.m2) - 3
}

// AppendFeatures appends the skew or kurtosis.
func (m *Moments) AppendFeatures(dst []float64, v View) []float64 {
	if v.Func == FKurtosis {
		return append(dst, m.Kurtosis())
	}
	return append(dst, m.Skew())
}

// StateBytes reports 40 bytes (n + four moments).
func (m *Moments) StateBytes() int { return 40 }

// ---------------------------------------------------------------------------
// f_array: pack samples into a sequence (direction sequences, §4.2).

// Array implements f_array: it stores the raw sequence up to maxLen
// samples (the fixed feature length the deep-learning fingerprinting
// models expect), discarding overflow.
type Array struct {
	maxLen int
	data   []int64
}

// Observe appends the sample until the cap is reached.
func (a *Array) Observe(x, _ int64) {
	if len(a.data) < a.maxLen {
		a.data = append(a.data, x)
	}
}

// AppendFeatures appends the sequence zero-padded to maxLen, which is
// the fixed-length representation the WFP models consume.
func (a *Array) AppendFeatures(dst []float64, _ View) []float64 {
	for _, v := range a.data {
		dst = append(dst, float64(v))
	}
	for i := len(a.data); i < a.maxLen; i++ {
		dst = append(dst, 0)
	}
	return dst
}

// StateBytes reports the current storage footprint.
func (a *Array) StateBytes() int { return 8 * len(a.data) }

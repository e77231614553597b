package streaming

import (
	"math"
	"slices"
)

// NaiveReducer is the store-everything counterpart of a streaming
// state: it computes the feature with a multi-pass batch algorithm
// over the complete sample stream. The paper's Figure 15 compares
// FE-NIC with streaming algorithms against this naïve
// re-implementation ("naïve algorithms ask for a large amount of
// on-chip memory, which exceeds the capacity of our SmartNICs"). A
// naive log (NaiveKernel) keeps the stream and reads through it.
type NaiveReducer struct {
	emit   Func
	params Params
	data   []int64
	tss    []int64 // timestamps, kept for the damped functions
}

// NewNaive constructs a naïve reducer computing f.
func NewNaive(f Func, p Params) *NaiveReducer {
	return &NaiveReducer{emit: f, params: p}
}

// AppendFeatures computes the feature with the batch algorithm. A
// naive reducer is one buffer per feature — its own family, whatever
// FamilyOf says of the function — so it answers for the function it
// was built with and ignores the view. The histogram views bin the
// whole buffer into a fresh histogram state and read it as the kernel
// does; f_array's is the buffer's first cap samples, zero-padded.
//
//superfe:coldpath ablation only (Figure 15): the batch algorithms allocate by design
func (n *NaiveReducer) AppendFeatures(dst []float64, _ View) []float64 {
	w := FeatureWidth(n.emit, n.params)
	dst = slices.Grow(dst, w)
	out := dst[len(dst) : len(dst)+w]
	switch n.emit {
	case FHist, FPDF, FCDF, FPercent:
		h := Kernel{kind: kindHist, width: n.params.BinWidth, bins: n.params.Bins}
		st := make([]uint64, (h.bins+1)/2)
		for _, x := range n.data {
			h.histObserve(st, x)
		}
		h.readHist(out, st, uint64(len(n.data)), ViewOf(n.emit, n.params))
	case FArray:
		readArray(out, n.data)
	default:
		out[0] = n.scalar()
	}
	return dst[:len(dst)+w]
}

// scalar computes the single-valued features.
func (n *NaiveReducer) scalar() float64 {
	switch n.emit {
	case FSum:
		var s int64
		for _, x := range n.data {
			s += x
		}
		return float64(s)
	case FMean:
		return naiveMean(n.data)
	case FVar:
		return naiveVar(n.data)
	case FStd:
		return math.Sqrt(naiveVar(n.data))
	case FMax:
		if len(n.data) == 0 {
			return 0
		}
		m := n.data[0]
		for _, x := range n.data[1:] {
			if x > m {
				m = x
			}
		}
		return float64(m)
	case FMin:
		if len(n.data) == 0 {
			return 0
		}
		m := n.data[0]
		for _, x := range n.data[1:] {
			if x < m {
				m = x
			}
		}
		return float64(m)
	case FSkew:
		return naiveStandardMoment(n.data, 3)
	case FKurtosis:
		return naiveStandardMoment(n.data, 4) - 3
	case FCard:
		set := make(map[int64]struct{}, len(n.data))
		for _, x := range n.data {
			set[x] = struct{}{}
		}
		return float64(len(set))
	case FMag, FRadius, FCov, FPCC:
		return naiveBidir(n.emit, n.data)
	case FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return naiveDamped(n.emit, n.params.Lambda, n.data, n.tss)
	}
	return 0
}

// naiveDamped replays the buffered (sample, timestamp) stream through
// a fresh damped window — the multi-pass equivalent of the streaming
// damped statistics.
func naiveDamped(f Func, lambda float64, data, tss []int64) float64 {
	switch f {
	case FDWeight, FDMean, FDStd:
		w := DampedWelford{Lambda: lambda}
		for i, x := range data {
			w.ObserveAt(float64(x), tss[i])
		}
		switch f {
		case FDMean:
			return w.Mean()
		case FDStd:
			return w.Std()
		default:
			return w.Weight()
		}
	default:
		d := NewDamped2D(lambda)
		for i, x := range data {
			if x >= 0 {
				d.ObserveA(float64(x), tss[i])
			} else {
				d.ObserveB(float64(-x), tss[i])
			}
		}
		switch f {
		case FD2DRadius:
			return d.Radius()
		case FD2DCov:
			return d.Cov()
		case FD2DPCC:
			return d.PCC()
		default:
			return d.Magnitude()
		}
	}
}

func naiveMean(data []int64) float64 {
	if len(data) == 0 {
		return 0
	}
	var s float64
	for _, x := range data {
		s += float64(x)
	}
	return s / float64(len(data))
}

func naiveVar(data []int64) float64 {
	if len(data) == 0 {
		return 0
	}
	m := naiveMean(data)
	var s float64
	for _, x := range data {
		d := float64(x) - m
		s += d * d
	}
	return s / float64(len(data))
}

// naiveStandardMoment computes the k-th standardised central moment
// E[(x-μ)^k]/σ^k with explicit passes, with the sqrt(n) skewness
// normalisation matching the streaming Moments implementation.
func naiveStandardMoment(data []int64, k int) float64 {
	if len(data) < 2 {
		return 0
	}
	m := naiveMean(data)
	v := naiveVar(data)
	if v == 0 {
		return 0
	}
	var s float64
	for _, x := range data {
		d := float64(x) - m
		p := d
		for i := 1; i < k; i++ {
			p *= d
		}
		s += p
	}
	n := float64(len(data))
	return (s / n) / math.Pow(v, float64(k)/2)
}

// naiveBidir splits the signed stream into forward/backward and
// computes the exact 2D statistic.
func naiveBidir(f Func, data []int64) float64 {
	var fwd, bwd []int64
	for _, x := range data {
		if x >= 0 {
			fwd = append(fwd, x)
		} else {
			bwd = append(bwd, -x)
		}
	}
	mf, mb := naiveMean(fwd), naiveMean(bwd)
	vf, vb := naiveVar(fwd), naiveVar(bwd)
	switch f {
	case FMag:
		return math.Sqrt(mf*mf + mb*mb)
	case FRadius:
		return math.Sqrt(vf*vf + vb*vb)
	case FCov, FPCC:
		// Exact covariance over index-paired samples (truncated to the
		// shorter stream).
		n := len(fwd)
		if len(bwd) < n {
			n = len(bwd)
		}
		if n == 0 {
			return 0
		}
		var sp float64
		for i := 0; i < n; i++ {
			sp += (float64(fwd[i]) - mf) * (float64(bwd[i]) - mb)
		}
		cov := sp / float64(n)
		if f == FCov {
			return cov
		}
		denom := math.Sqrt(vf) * math.Sqrt(vb)
		if denom == 0 {
			return 0
		}
		p := cov / denom
		return math.Max(-1, math.Min(1, p))
	}
	return 0
}

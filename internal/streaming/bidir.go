package streaming

import "math"

// Bidirectional implements the 2D statistics over bidirectional
// sequences from Appendix A (f_mag, f_radius, f_cov, f_pcc). These
// are the features Kitsune and HELAD compute over the two directions
// of a channel/socket: treating the forward and backward sample
// streams as two correlated 1D streams i and j,
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
// backward stream, matching the f_direction mapping function that
// emits +1/-1 factors (§4.2 Figure 5).
type Bidirectional struct {
	fwd Welford
	bwd Welford
	// Residual bookkeeping for the incremental covariance.
	lastResFwd float64
	lastResBwd float64
	sp         float64 // sum of residual products
	nPairs     uint64
}

// Observe folds one directional sample: sign selects the stream, the
// magnitude is the value.
func (b *Bidirectional) Observe(x, ts int64) {
	if x >= 0 {
		res := float64(x) - b.fwd.Mean()
		b.fwd.Observe(x, ts)
		b.lastResFwd = res
		b.sp += res * b.lastResBwd
	} else {
		v := -x
		res := float64(v) - b.bwd.Mean()
		b.bwd.Observe(v, ts)
		b.lastResBwd = res
		b.sp += res * b.lastResFwd
	}
	b.nPairs++
}

// Magnitude returns sqrt(mean_f² + mean_b²).
func (b *Bidirectional) Magnitude() float64 {
	return math.Sqrt(b.fwd.Mean()*b.fwd.Mean() + b.bwd.Mean()*b.bwd.Mean())
}

// Radius returns sqrt(var_f² + var_b²).
func (b *Bidirectional) Radius() float64 {
	return math.Sqrt(b.fwd.Var()*b.fwd.Var() + b.bwd.Var()*b.bwd.Var())
}

// Cov returns the approximate covariance SP/n.
func (b *Bidirectional) Cov() float64 {
	if b.nPairs == 0 {
		return 0
	}
	return b.sp / float64(b.nPairs)
}

// PCC returns the approximate Pearson correlation coefficient,
// clamped to [-1, 1].
func (b *Bidirectional) PCC() float64 {
	denom := math.Sqrt(b.fwd.Var()) * math.Sqrt(b.bwd.Var())
	if denom == 0 {
		return 0
	}
	p := b.Cov() / denom
	return math.Max(-1, math.Min(1, p))
}

// AppendFeatures appends the magnitude, radius, covariance or
// correlation.
func (b *Bidirectional) AppendFeatures(dst []float64, v View) []float64 {
	switch v.Func {
	case FRadius:
		return append(dst, b.Radius())
	case FCov:
		return append(dst, b.Cov())
	case FPCC:
		return append(dst, b.PCC())
	default:
		return append(dst, b.Magnitude())
	}
}

// StateBytes reports the two Welford states plus covariance
// bookkeeping.
func (b *Bidirectional) StateBytes() int { return b.fwd.StateBytes() + b.bwd.StateBytes() + 32 }

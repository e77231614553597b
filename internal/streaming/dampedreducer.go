package streaming

import (
	"fmt"
	"math"
)

// Damped reducing functions over 2^(-λΔt) windows. FDWeight/FDMean/
// FDStd are the 1D statistics (w, μ, σ); the FD2D* functions are the
// bidirectional 2D statistics, with direction carried in the sample
// sign exactly like the undamped Bidirectional reducers.
const (
	FDWeight Func = Func(numFuncs) + iota
	FDMean
	FDStd
	FD2DMag
	FD2DRadius
	FD2DCov
	FD2DPCC
	numFuncsExt
)

// NumFuncsTotal counts all reducing functions including the damped
// extension set.
const NumFuncsTotal = int(numFuncsExt)

// IsTimed reports whether f is a damped (timestamp-consuming)
// reducing function; the policy compiler batches the timestamp
// metadata field whenever one is used.
func IsTimed(f Func) bool { return f >= FDWeight && f < numFuncsExt }

// dampedName returns the policy-language name of a damped function,
// or "" if f is not one.
func dampedName(f Func) string {
	switch f {
	case FDWeight:
		return "fd_weight"
	case FDMean:
		return "fd_mean"
	case FDStd:
		return "fd_std"
	case FD2DMag:
		return "fd_mag"
	case FD2DRadius:
		return "fd_radius"
	case FD2DCov:
		return "fd_cov"
	case FD2DPCC:
		return "fd_pcc"
	}
	return ""
}

// Damped1D adapts DampedWelford to the Reducer interface: one state
// behind the weight, mean and stddev views.
type Damped1D struct {
	w DampedWelford
}

// NewDamped1D builds a damped 1D reducer with decay rate lambda
// (1/s).
func NewDamped1D(lambda float64) *Damped1D {
	return &Damped1D{w: DampedWelford{Lambda: lambda}}
}

// Observe folds a timestamped sample.
func (d *Damped1D) Observe(x, ts int64) { d.w.ObserveAt(float64(x), ts) }

// AppendFeatures appends the damped weight, mean or stddev.
func (d *Damped1D) AppendFeatures(dst []float64, v View) []float64 {
	switch v.Func {
	case FDMean:
		return append(dst, d.w.Mean())
	case FDStd:
		return append(dst, d.w.Std())
	default:
		return append(dst, d.w.Weight())
	}
}

// StateBytes reports the damped window state.
func (d *Damped1D) StateBytes() int { return d.w.StateBytes() }

// Damped2DReducer adapts Damped2D to the Reducer interface, one state
// behind the four 2D views: positive samples feed stream A (forward),
// negative samples feed stream B (backward) with magnitude |x|.
type Damped2DReducer struct {
	d Damped2D
}

// NewDamped2DReducer builds a damped 2D reducer.
func NewDamped2DReducer(lambda float64) *Damped2DReducer {
	return &Damped2DReducer{d: *NewDamped2D(lambda)}
}

// Observe folds a timestamped directional sample.
func (r *Damped2DReducer) Observe(x, ts int64) {
	if x >= 0 {
		r.d.ObserveA(float64(x), ts)
	} else {
		r.d.ObserveB(float64(-x), ts)
	}
}

// AppendFeatures appends the damped magnitude, radius, covariance or
// correlation.
func (r *Damped2DReducer) AppendFeatures(dst []float64, v View) []float64 {
	switch v.Func {
	case FD2DRadius:
		return append(dst, r.d.Radius())
	case FD2DCov:
		return append(dst, r.d.Cov())
	case FD2DPCC:
		return append(dst, r.d.PCC())
	default:
		return append(dst, r.d.Magnitude())
	}
}

// StateBytes reports the 2D window state.
func (r *Damped2DReducer) StateBytes() int { return r.d.StateBytes() }

// newDamped dispatches the damped constructors for New.
func newDamped(f Func, p Params) (Reducer, error) {
	if !(p.Lambda > 0 && p.Lambda <= math.MaxFloat64) { // NaN and +Inf included
		return nil, fmt.Errorf("streaming: %s requires a positive, finite decay rate lambda, got %g", f, p.Lambda)
	}
	switch f {
	case FDWeight, FDMean, FDStd:
		return NewDamped1D(p.Lambda), nil
	case FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return NewDamped2DReducer(p.Lambda), nil
	}
	return nil, fmt.Errorf("streaming: unknown damped function %d", uint8(f))
}

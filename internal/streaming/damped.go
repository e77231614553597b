package streaming

import "math"

// DampedWelford maintains incremental statistics over a damped window
// — the decayed statistics Kitsune's feature extractor is built on
// (§1: "115-dimension traffic feature vectors with incremental
// statistics over a damped window"). Each statistic decays by
// 2^(-λ·Δt) between observations, so recent traffic dominates and
// idle flows fade without any explicit window buffer. State is
// (w, linSum, sqSum, lastTime): weight, decayed sum, decayed sum of
// squares and the last update timestamp. The naive ablation replays it
// (NaiveReducer), and so do the oracle's damped reducers
// (internal/baseline): the one code the oracle shares beyond shared.go,
// and never with the kernels.
type DampedWelford struct {
	// Lambda is the decay rate in 1/seconds. Kitsune uses the set
	// {5, 3, 1, 0.1, 0.01} to cover multiple time scales.
	Lambda   float64
	w        float64 // decayed weight ("count")
	linSum   float64
	sqSum    float64
	lastTime int64 // ns
	started  bool
}

// decayTo applies the exponential decay from lastTime to ts.
func (d *DampedWelford) decayTo(ts int64) {
	if !d.started {
		d.lastTime, d.started = ts, true
		return
	}
	if ts <= d.lastTime {
		return
	}
	factor := DecayFactor(d.Lambda, ts-d.lastTime)
	d.w *= factor
	d.linSum *= factor
	d.sqSum *= factor
	d.lastTime = ts
}

// ObserveAt folds one sample observed at timestamp ts (ns).
func (d *DampedWelford) ObserveAt(x float64, ts int64) {
	d.decayTo(ts)
	d.w++
	d.linSum += x
	d.sqSum += x * x
}

// Weight returns the decayed sample weight.
func (d *DampedWelford) Weight() float64 { return d.w }

// Mean returns the decayed mean.
func (d *DampedWelford) Mean() float64 {
	if d.w == 0 {
		return 0
	}
	return d.linSum / d.w
}

// Var returns the decayed variance.
func (d *DampedWelford) Var() float64 {
	if d.w == 0 {
		return 0
	}
	m := d.Mean()
	v := d.sqSum/d.w - m*m
	if v < 0 {
		v = 0
	}
	return v
}

// Std returns the decayed standard deviation.
func (d *DampedWelford) Std() float64 { return math.Sqrt(d.Var()) }

// Damped2D extends the damped statistics to two jointly observed
// streams, providing the 2D features (magnitude, radius, covariance,
// correlation) Kitsune computes per channel over damped windows.
type Damped2D struct {
	A, B DampedWelford
	// Decayed sum of residual products for covariance, updated with
	// each stream's newest residual against the other stream's most
	// recent residual (Kitsune's incremental 2D statistic).
	sr       float64
	wSR      float64
	lastResA float64
	lastResB float64
	lastTime int64
	started  bool
	Lambda   float64
}

// NewDamped2D constructs the pair with a shared decay rate.
func NewDamped2D(lambda float64) *Damped2D {
	return &Damped2D{A: DampedWelford{Lambda: lambda}, B: DampedWelford{Lambda: lambda}, Lambda: lambda}
}

func (d *Damped2D) decayTo(ts int64) {
	if !d.started {
		d.lastTime, d.started = ts, true
		return
	}
	if ts <= d.lastTime {
		return
	}
	factor := DecayFactor(d.Lambda, ts-d.lastTime)
	d.sr *= factor
	d.wSR *= factor
	d.lastTime = ts
}

// ObserveA folds a sample from stream A at ts, accumulating the
// product of its residual with stream B's most recent residual.
func (d *Damped2D) ObserveA(x float64, ts int64) {
	d.decayTo(ts)
	res := x - d.A.Mean()
	d.A.ObserveAt(x, ts)
	d.lastResA = res
	d.sr += res * d.lastResB
	d.wSR++
}

// ObserveB folds a sample from stream B at ts.
func (d *Damped2D) ObserveB(x float64, ts int64) {
	d.decayTo(ts)
	res := x - d.B.Mean()
	d.B.ObserveAt(x, ts)
	d.lastResB = res
	d.sr += res * d.lastResA
	d.wSR++
}

// Magnitude returns sqrt(meanA² + meanB²).
func (d *Damped2D) Magnitude() float64 {
	ma, mb := d.A.Mean(), d.B.Mean()
	return math.Sqrt(ma*ma + mb*mb)
}

// Radius returns sqrt(varA² + varB²).
func (d *Damped2D) Radius() float64 {
	va, vb := d.A.Var(), d.B.Var()
	return math.Sqrt(va*va + vb*vb)
}

// Cov returns the decayed approximate covariance.
func (d *Damped2D) Cov() float64 {
	if d.wSR == 0 {
		return 0
	}
	return d.sr / d.wSR
}

// PCC returns the decayed approximate correlation coefficient,
// clamped to [-1, 1].
func (d *Damped2D) PCC() float64 {
	denom := d.A.Std() * d.B.Std()
	if denom == 0 {
		return 0
	}
	p := d.Cov() / denom
	return math.Max(-1, math.Min(1, p))
}

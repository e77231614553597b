package harness

import (
	"math"
	"math/rand"
	"sort"

	"superfe/internal/streaming"
)

// This file holds the three feature computations Figure 10 compares:
//
//	exactValue     — the standard definition, computed in full
//	                 precision from the buffered sample stream
//	                 (exact decayed sums; exact sorted quantile;
//	                 exact distinct count);
//	streamingValue — SuperFE's one-pass streaming algorithms, as
//	                 the deployed kernels compute them;
//	float32Value   — an emulation of the original Kitsune
//	                 implementation: the same incremental updates in
//	                 float32 state.
//
// Each takes the signed-directional sample stream (sign = direction)
// with per-sample timestamps.

type sampleStream = []struct {
	x  int64
	ts int64
}

// exactValue computes the standard-definition value.
func exactValue(f streaming.Func, ss sampleStream, lambda float64) float64 {
	switch f {
	case streaming.FDMean, streaming.FDStd:
		// Exact decayed sums relative to the last timestamp.
		T := ss[len(ss)-1].ts
		var w, lin, sq float64
		for _, s := range ss {
			decay := math.Exp2(-lambda * float64(T-s.ts) / 1e9)
			x := math.Abs(float64(s.x))
			w += decay
			lin += decay * x
			sq += decay * x * x
		}
		if w == 0 {
			return 0
		}
		mean := lin / w
		if f == streaming.FDMean {
			return mean
		}
		v := sq/w - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v)
	case streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC:
		return exact2D(f, ss, lambda)
	case streaming.FPercent:
		vals := make([]int64, 0, len(ss))
		for _, s := range ss {
			if s.x >= 0 {
				vals = append(vals, s.x)
			} else {
				vals = append(vals, -s.x)
			}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return float64(vals[len(vals)/2])
	case streaming.FCard:
		set := map[int64]struct{}{}
		for _, s := range ss {
			set[s.x] = struct{}{}
		}
		return float64(len(set))
	}
	return math.NaN()
}

// exact2D computes the decayed 2D statistics with exact decayed sums
// per direction and exact index-paired decayed covariance.
func exact2D(f streaming.Func, ss sampleStream, lambda float64) float64 {
	T := ss[len(ss)-1].ts
	type dsum struct{ w, lin, sq float64 }
	var a, b dsum
	var as, bs []struct{ x, decay float64 }
	for _, s := range ss {
		decay := math.Exp2(-lambda * float64(T-s.ts) / 1e9)
		x := float64(s.x)
		if x >= 0 {
			a.w += decay
			a.lin += decay * x
			a.sq += decay * x * x
			as = append(as, struct{ x, decay float64 }{x, decay})
		} else {
			x = -x
			b.w += decay
			b.lin += decay * x
			b.sq += decay * x * x
			bs = append(bs, struct{ x, decay float64 }{x, decay})
		}
	}
	stat := func(d dsum) (mean, variance float64) {
		if d.w == 0 {
			return 0, 0
		}
		mean = d.lin / d.w
		variance = d.sq/d.w - mean*mean
		if variance < 0 {
			variance = 0
		}
		return
	}
	ma, va := stat(a)
	mb, vb := stat(b)
	switch f {
	case streaming.FD2DMag:
		return math.Sqrt(ma*ma + mb*mb)
	case streaming.FD2DRadius:
		return math.Sqrt(va*va + vb*vb)
	}
	// Exact index-paired decayed covariance.
	n := len(as)
	if len(bs) < n {
		n = len(bs)
	}
	if n == 0 {
		return 0
	}
	var sp, w float64
	for i := 0; i < n; i++ {
		d := math.Min(as[i].decay, bs[i].decay)
		sp += d * (as[i].x - ma) * (bs[i].x - mb)
		w += d
	}
	cov := sp / w
	if f == streaming.FD2DCov {
		return cov
	}
	denom := math.Sqrt(va) * math.Sqrt(vb)
	if denom == 0 {
		return 0
	}
	return math.Max(-1, math.Min(1, cov/denom))
}

// streamingValue runs what the FE-NIC runs for f over the stream: a
// one-state group record driven through its streaming.Kernel, on one
// clock and one Decay as a group keeps them.
func streamingValue(f streaming.Func, ss sampleStream, lambda float64) float64 {
	params := streaming.Params{Lambda: lambda}
	if f == streaming.FPercent {
		params = streaming.Params{BinWidth: 16, Bins: 128, Quantile: 0.5}
	}
	var decay streaming.Decay
	k, err := streaming.KernelFor(f, params, &decay, new(streaming.Logs))
	must(err)
	rec := make([]uint64, k.Words)
	var step streaming.Step
	var clock int64
	// The 1D statistics and the percentile observe magnitudes; the 2D
	// ones split on the sign, and f_card counts the signed samples.
	signed := f == streaming.FCard || streaming.FamilyOf(f, params).Func == streaming.FD2DMag
	for i, s := range ss {
		x := s.x
		if x < 0 && !signed {
			x = -x
		}
		decay.Reset()
		clock = step.Begin(&decay, k.Lanes(), uint64(i), clock, s.ts)
		k.Observe(rec, x, &step)
	}
	plan := k.PlanRead([]streaming.View{streaming.ViewOf(f, params)}, []int{0})
	out := make([]float64, 1)
	k.Read(out, rec, uint64(len(ss)), &plan)
	return out[0]
}

// float32Value emulates the original Kitsune implementation: the same
// incremental damped updates with float32 state (AfterImage keeps its
// statistics in 32-bit floats), which loses precision on long
// streams. Non-damped families fall back to the streaming value (the
// original computes those exactly, in float32).
func float32Value(f streaming.Func, ss sampleStream, lambda float64) float64 {
	switch f {
	case streaming.FDMean, streaming.FDStd:
		var w, lin, sq float32
		var last int64
		started := false
		for _, s := range ss {
			if started && s.ts > last {
				decay := float32(math.Exp2(-lambda * float64(s.ts-last) / 1e9))
				w *= decay
				lin *= decay
				sq *= decay
			}
			last, started = s.ts, true
			x := float32(math.Abs(float64(s.x)))
			w++
			lin += x
			sq += x * x
		}
		if w == 0 {
			return 0
		}
		mean := lin / w
		if f == streaming.FDMean {
			return float64(mean)
		}
		v := sq/w - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(float64(v))
	case streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC:
		return float32Value2D(f, ss, lambda)
	default:
		return streamingValue(f, ss, lambda)
	}
}

type f32Damped struct {
	w, lin, sq float32
	last       int64
	started    bool
}

func (d *f32Damped) observe(x float32, ts int64, lambda float64) {
	if d.started && ts > d.last {
		decay := float32(math.Exp2(-lambda * float64(ts-d.last) / 1e9))
		d.w *= decay
		d.lin *= decay
		d.sq *= decay
	}
	d.last, d.started = ts, true
	d.w++
	d.lin += x
	d.sq += x * x
}

func (d *f32Damped) mean() float32 {
	if d.w == 0 {
		return 0
	}
	return d.lin / d.w
}

func (d *f32Damped) variance() float32 {
	if d.w == 0 {
		return 0
	}
	m := d.mean()
	v := d.sq/d.w - m*m
	if v < 0 {
		v = 0
	}
	return v
}

func float32Value2D(f streaming.Func, ss sampleStream, lambda float64) float64 {
	var a, b f32Damped
	var sp, wsp float32
	var lastResA, lastResB float32
	for _, s := range ss {
		x := float32(s.x)
		if x >= 0 {
			res := x - a.mean()
			a.observe(x, s.ts, lambda)
			lastResA = res
			sp += res * lastResB
		} else {
			x = -x
			res := x - b.mean()
			b.observe(x, s.ts, lambda)
			lastResB = res
			sp += res * lastResA
		}
		wsp++
	}
	switch f {
	case streaming.FD2DMag:
		ma, mb := float64(a.mean()), float64(b.mean())
		return math.Sqrt(ma*ma + mb*mb)
	case streaming.FD2DRadius:
		va, vb := float64(a.variance()), float64(b.variance())
		return math.Sqrt(va*va + vb*vb)
	case streaming.FD2DCov:
		if wsp == 0 {
			return 0
		}
		return float64(sp / wsp)
	default:
		denom := math.Sqrt(float64(a.variance())) * math.Sqrt(float64(b.variance()))
		if denom == 0 || wsp == 0 {
			return 0
		}
		return math.Max(-1, math.Min(1, float64(sp/wsp)/denom))
	}
}

// newRand builds the deterministic RNG the detector experiments use.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

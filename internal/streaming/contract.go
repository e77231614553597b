package streaming

import "math"

// Value-range contracts of the reducing functions — the exported
// counterpart of the behaviour the reducers implement. planprove's
// abstract interpreter consumes these to decide whether a plan's
// reducer inputs stay inside the range a fixed-point dataplane
// implementation of the function can represent, and the nicsim
// runtime prices the same bounds into its saturation counters so the
// static verdict and the simulator ground truth can be held
// accountable to each other (the polgen soundness cross-check).

// FixedPointInputMax bounds |x| for the general reducer input lane: a
// deployed Micro-C implementation carries samples in signed 32-bit
// fixed-point registers, so inputs past 2^31-1 would saturate or wrap
// on the NFP even though the simulator's int64 arithmetic is exact.
const FixedPointInputMax = int64(1)<<31 - 1

// DampedFixedPointInputMax bounds |x| for the damped-window (fd_*)
// functions. Their ProvisionedBytes pack (w, lin, sq, ts) into 32-bit
// fixed-point words, and the squared-sum lane needs x² to fit: |x| ≤
// 2^15-1 keeps x² under 2^30, leaving headroom for the decayed sum.
const DampedFixedPointInputMax = int64(1)<<15 - 1

// Contract describes the clamp-free input domain and state counter
// width of one reducing function.
type Contract struct {
	// InLo/InHi bound the clamp-free input range [InLo, InHi): the
	// histogram family behaviourally clamps samples outside it
	// (negatives into bin 0, the tail into the last bin — see
	// Kernel.histObserve); every other function accepts the full int64
	// range. Unbounded sides are MinInt64 / MaxInt64.
	InLo, InHi int64
	// FixedPointMax bounds |x| for the function's fixed-point input
	// lane on a deployed NFP (see FixedPointInputMax and the damped
	// variant).
	FixedPointMax int64
	// CounterBits is the width of the widest per-sample counter in
	// the function's state (hist bins are u32, HLL registers u8, the
	// scalar accumulators u64/f64).
	CounterBits int
	// Clamps reports whether out-of-range inputs clamp behaviourally
	// (the histogram family) rather than pass through exactly.
	Clamps bool
}

// Bounded reports whether the contract constrains the input range at
// all (i.e. whether out-of-range inputs exist).
func (c Contract) Bounded() bool {
	return c.InLo != math.MinInt64 || c.InHi != math.MaxInt64
}

// HistRange returns the clamp-free input range of the histogram
// family for the given parameters: [0, Bins×BinWidth).
func HistRange(p Params) (lo, hi int64) {
	return 0, p.BinWidth * int64(p.Bins)
}

// ContractFor returns the value-range contract of f with the given
// parameters.
func ContractFor(f Func, p Params) Contract {
	c := Contract{
		InLo:          math.MinInt64,
		InHi:          math.MaxInt64,
		FixedPointMax: FixedPointInputMax,
		CounterBits:   64,
	}
	switch f {
	case FHist, FPDF, FCDF, FPercent:
		c.InLo, c.InHi = HistRange(p)
		c.CounterBits = 32 // uint32 bin counters
		c.Clamps = true
	case FCard:
		c.CounterBits = 8 // HyperLogLog rank registers
	case FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		c.FixedPointMax = DampedFixedPointInputMax
		c.CounterBits = 32 // packed fixed-point words
	}
	return c
}

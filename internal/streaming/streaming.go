// Package streaming is the FE-NIC's side of the reducing functions
// (§6.1 of the paper, Appendix A Table 5): the one-pass streaming
// algorithms the NIC computes, compiled onto group records as Kernels
// (kernel.go), and the store-everything naive counterpart the Figure 15
// ablation replays (naive.go).
//
// The kernels are held to the oracle's reducers (internal/baseline),
// which may run only the shared contract of this package: the
// Func/Params/View/Family/FeatureWidth definitions (this file) and the
// arithmetic of shared.go (DecayFactor and its exp2Row, Hash32,
// HLLEstimate with its α). A slip there moves both legs of every
// differential alike, so each has an exact-math test. DampedWelford and
// Damped2D (damped.go) are the one exception: the oracle shares them
// with the naive ablation, never with the kernels.
//
//superfe:deterministic
package streaming

import (
	"fmt"
	"math"
)

// View selects the family member a read-out takes from a state.
// States of single-member families ignore it.
type View struct {
	Func     Func
	Quantile float64 // ft_percent: which quantile to report
}

// ViewOf returns the view of f with the given parameters.
func ViewOf(f Func, p Params) View { return View{Func: f, Quantile: p.Quantile} }

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
	return fmt.Sprintf("f(%d)", uint8(f))
}

// Damped reducing functions over 2^(-λΔt) windows. FDWeight/FDMean/
// FDStd are the 1D statistics (w, μ, σ); the FD2D* functions are the
// bidirectional 2D statistics, with direction carried in the sample
// sign exactly like the undamped f_mag family.
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

// Validate reports whether f is a known reducing function and p
// parameters it accepts: the one parameter check, which the policy
// compiler runs on every reduce spec and the kernel constructors run
// again, so a bad policy is rejected before anything is built.
func Validate(f Func, p Params) error {
	switch f {
	case FSum, FMean, FVar, FStd, FMax, FMin, FKurtosis, FSkew, FMag, FRadius, FCov, FPCC:
		return nil
	case FCard:
		bits := p.HLLBits
		if bits == 0 {
			bits = DefaultHLLBits
		}
		if bits < 2 || bits > 16 {
			return fmt.Errorf("streaming: HyperLogLog bits must be in [2,16], got %d", bits)
		}
		return nil
	case FArray:
		if p.MaxLen < 0 {
			return fmt.Errorf("streaming: f_array requires a non-negative cap (0: the default), got %d", p.MaxLen)
		}
		return nil
	case FHist, FPercent, FPDF, FCDF:
		if p.Bins <= 0 || p.BinWidth <= 0 {
			return fmt.Errorf("streaming: %s requires positive bins and bin width, got bins=%d width=%d", f, p.Bins, p.BinWidth)
		}
		if f == FPercent && !(p.Quantile > 0 && p.Quantile < 1) { // NaN included
			return fmt.Errorf("streaming: ft_percent requires quantile in (0,1), got %g", p.Quantile)
		}
		return nil
	case FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		if !(p.Lambda > 0 && p.Lambda <= math.MaxFloat64) { // NaN and +Inf included
			return fmt.Errorf("streaming: %s requires a positive, finite decay rate lambda, got %g", f, p.Lambda)
		}
		return nil
	}
	return fmt.Errorf("streaming: unknown reducing function %d", uint8(f))
}

// stateBytes is the modelled footprint in bytes of one state of the
// family fam, one lane of a damped one: what the NIC memory model
// charges a group for it (Kernel.Bytes). A log (f_array) holds no
// sample yet; it grows by 8 bytes a sample (Kernel.Bytes).
func stateBytes(fam Family) int {
	switch fam.Func {
	case FSum:
		return 16 // count + sum
	case FMax, FMin:
		return 9 // value + seen flag
	case FMean:
		return 24 // n, mean, M2
	case FSkew:
		return 40 // n + four moments
	case FMag:
		return 2*24 + 32 // two Welford triples + covariance bookkeeping
	case FHist:
		return 4*fam.Params.Bins + 8 // uint32 bins + the sample counter
	case FDWeight:
		return dampedBytes
	case FD2DMag:
		return 2*dampedBytes + 24 // two windows + covariance bookkeeping
	case FCard:
		bits := fam.Params.HLLBits
		if bits == 0 {
			bits = DefaultHLLBits
		}
		return 1 << bits // one byte a register
	}
	return 0 // f_array: an empty log
}

// dampedBytes is one damped window's footprint: w, LS, SS and the
// clock, 8 bytes each, and a started flag.
const dampedBytes = 33

// ProvisionedBytes returns the per-group state footprint a deployed
// (Micro-C) implementation provisions for f — the b_s input of the
// §6.2 placement ILP. It differs from the modelled footprint
// (stateBytes) in two cases: f_array provisions a fixed resident window
// (the bulk sequence streams to external memory as it grows), and the
// damped statistics pack into 32-bit fixed-point words on the NFP.
func ProvisionedBytes(f Func, p Params) int {
	switch f {
	case FArray:
		return 512 // resident window; bulk spills to EMEM/DRAM
	case FDWeight, FDMean, FDStd:
		return 16 // packed (w, lin, sq, ts)
	case FD2DMag, FD2DRadius, FD2DCov, FD2DPCC:
		return 40 // two packed windows + residual product
	}
	if Validate(f, p) != nil {
		return 16
	}
	return stateBytes(FamilyOf(f, p))
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

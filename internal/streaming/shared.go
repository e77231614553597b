package streaming

import (
	"math"
	"runtime"
)

// The shared arithmetic: what the NIC's kernels and the oracle
// (internal/baseline's reducers) both compute with, and the only code
// of this package the oracle runs besides the definitions of
// streaming.go (and the damped windows it shares with the naive
// ablation). A bug here would move both legs of every differential
// alike, so each function is held to exact math by a test of its own:
// DecayFactor/exp2Row to math.Exp2 bit for bit (TestExp2MatchesMathExp2),
// Hash32 to an independent MurmurHash3 finalizer (TestHash32IsFmix64),
// HLLEstimate to Flajolet et al.'s constants (TestHLLEstimateConstants).

// DecayFactor is the damped window's decay over dt nanoseconds at rate
// lambda: 2^(-λ·Δt), a decay row of one lane.
func DecayFactor(lambda float64, dt int64) float64 {
	var f [1]float64
	exp2Row(f[:], []float64{lambda}, dt)
	return f[0]
}

// exp2Row sets f[l] to the decay over dt nanoseconds at rate lambdas[l],
// 2^(-λ·Δt), every lane in one pass: the lanes are independent, so
// their chains of arithmetic overlap in the pipeline. Each is
// math.Exp2(-λ·Δt) bit for bit. On [-1022, 0] the loop's body is the
// standard library's algorithm (math/exp.go's exp2 and expmulti) — the
// same constants, the same operations in the same order — except that
// 2^k is built on the exponent bits, the NFP's shift done exactly,
// where math.Exp2 calls Ldexp: the product is exact whenever the result
// is normal, and on [-1022, 0] it is. A lane off that range (NaN, -Inf,
// underflow: λ = 5 past ~204 s) takes math.Exp2 itself. The copy is
// taken on amd64 only, where the compiler fuses no multiply-add of its
// own accord; elsewhere fusion (or arm64's assembly Exp2) could round
// the two differently.
//
//superfe:hotpath
func exp2Row(f, lambdas []float64, dt int64) {
	const (
		Ln2Hi = 6.93147180369123816490e-01
		Ln2Lo = 1.90821492927058770002e-10

		P1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		P2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		P3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		P4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		P5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	dts := float64(dt) / 1e9
	f = f[:len(lambdas)]
	for l, lambda := range lambdas {
		x := -lambda * dts
		if runtime.GOARCH != "amd64" || !(x >= -1022 && x <= 0) {
			f[l] = math.Exp2(x)
			continue
		}
		// x = k + t with |t| ≤ 1/2 (k rounds half away from zero, as
		// math's does for x < 0; at x = 0 both give k = 0); e^r with
		// r = t·ln 2, carried as hi - lo for extra precision.
		k := int(x - 0.5)
		t := x - float64(k)
		hi := t * Ln2Hi
		lo := -t * Ln2Lo
		r := hi - lo
		t = r * r
		c := r - t*(P1+t*(P2+t*(P3+t*(P4+t*P5))))
		y := 1 - ((lo - (r*c)/(2-c)) - hi)
		f[l] = y * math.Float64frombits(uint64(1023+k)<<52)
	}
}

// Hash32 mixes a sample into a well-distributed 32-bit value for the
// f_card sketch: the 64-bit finalizer of MurmurHash3 (fmix64), cut to
// its low 32 bits, which a Tofino CRC polynomial or NFP hash unit would
// provide in hardware. Its top bits index a register, the rest give the
// rank.
func Hash32(x int64) uint32 {
	h := uint64(x)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// HLLEstimate is the HyperLogLog cardinality estimate of n registers
// whose 2^-register terms sum to sum, zeros of them empty: the raw
// estimate α_n·n²/sum with Flajolet et al.'s bias constant α_n, and
// linear counting, n·ln(n/zeros), for small cardinalities (a raw
// estimate of at most 2.5n while a register is empty).
func HLLEstimate(n int, sum float64, zeros int) float64 {
	m := float64(n)
	e := hllAlpha(n) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

// hllAlpha is the bias-correction constant α_m of m registers.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

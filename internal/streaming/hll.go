package streaming

import (
	"fmt"
	"math"
	"math/bits"
)

// HyperLogLog implements f_card (§6.1 "Cardinality"): the number of
// distinct elements in a group, estimated with the HyperLogLog sketch
// of Flajolet et al. As in the paper, a 32-bit hash of each sample is
// split: the first k bits index a bucket, the remaining 32-k bits are
// scanned for leading zeros; each bucket keeps the maximum
// leading-zero run (+1), and the harmonic mean of the buckets yields
// the estimate. All per-packet operations are shifts and compares —
// no division — matching the SmartNIC constraint.
type HyperLogLog struct {
	bits    int
	buckets []uint8
}

// NewHyperLogLog creates a sketch with 2^b buckets. b must be in
// [2, 16].
func NewHyperLogLog(b int) (*HyperLogLog, error) {
	if b < 2 || b > 16 {
		return nil, fmt.Errorf("streaming: HyperLogLog bits must be in [2,16], got %d", b)
	}
	return &HyperLogLog{bits: b, buckets: make([]uint8, 1<<b)}, nil
}

// hash32 mixes the sample into a well-distributed 32-bit value
// (finalizer of MurmurHash3, which a Tofino CRC polynomial or NFP
// hash unit would provide in hardware).
func hash32(x int64) uint32 {
	h := uint64(x)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return uint32(h)
}

// Observe folds one sample into the sketch.
func (h *HyperLogLog) Observe(x, _ int64) {
	v := hash32(x)
	idx := v >> (32 - h.bits)
	rest := v << h.bits // remaining 32-k bits, left aligned
	// Leading-zero run among the remaining bits, +1, capped.
	rho := uint8(bits.LeadingZeros32(rest|1)) + 1
	if rho > h.buckets[idx] {
		h.buckets[idx] = rho
	}
}

// Estimate returns the cardinality estimate with the standard
// HyperLogLog bias correction, including the small-range (linear
// counting) correction.
func (h *HyperLogLog) Estimate() float64 {
	var sum float64
	zeros := 0
	for _, b := range h.buckets {
		sum += 1 / float64(uint64(1)<<b)
		if b == 0 {
			zeros++
		}
	}
	return hllEstimate(len(h.buckets), sum, zeros)
}

// hllEstimate is the estimate of n registers whose 2^-register terms
// sum to sum, zeros of them empty.
func hllEstimate(n int, sum float64, zeros int) float64 {
	m := float64(n)
	e := alphaFor(n) * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Linear counting for small cardinalities.
		e = m * math.Log(m/float64(zeros))
	}
	return e
}

func alphaFor(m int) float64 {
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

// AppendFeatures appends the cardinality estimate.
func (h *HyperLogLog) AppendFeatures(dst []float64, _ View) []float64 {
	return append(dst, h.Estimate())
}

// StateBytes reports one byte per bucket.
func (h *HyperLogLog) StateBytes() int { return len(h.buckets) }

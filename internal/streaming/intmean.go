package streaming

// IntMean models the division-free running mean used on the NFP
// cores (§6.2 "Computational cycle optimization", third item). The
// NFP lacks hardware division: the compiler's algorithmic division
// costs ~1500 cycles, so SuperFE replaces the per-packet division in
// Welford's update
//
//	mean += (x - mean) / n
//
// with a comparison: once n is large, (x-mean)/n is almost always 0
// or ±1, so the increment is computed by comparing |x-mean| against n
// instead of dividing. For small n (below smallN) the exact division
// is kept, because early estimates matter and divisions are rare.
//
// IntMean exists both as a usable reducer and as the reference
// implementation for the cycle model in internal/nicsim: its
// DivisionsUsed counter lets the Figure 17 experiment report how many
// expensive operations each optimization level performs.
type IntMean struct {
	n    int64
	mean int64
	// DivisionsUsed counts actual divide operations performed, for
	// the cycle model.
	DivisionsUsed uint64
	// ComparesUsed counts the cheap compare-based updates.
	ComparesUsed uint64
	// Exact disables the optimization (baseline mode in Figure 17).
	Exact bool
}

// smallN is the threshold below which IntMean still divides.
const smallN = 16

// Observe folds one sample into the division-free running mean.
func (im *IntMean) Observe(x int64) {
	im.n++
	delta := x - im.mean
	if im.Exact || im.n < smallN {
		im.mean += delta / im.n
		im.DivisionsUsed++
		return
	}
	// Division elimination: compare |delta| against n to derive the
	// quotient when it is small (0 or ±1 covers the common case); fall
	// back to at most a few subtract steps for moderate quotients, and
	// to real division only for outliers.
	im.ComparesUsed++
	neg := delta < 0
	mag := delta
	if neg {
		mag = -mag
	}
	switch {
	case mag < im.n:
		// quotient 0 — nothing to add.
	case mag < 2*im.n:
		if neg {
			im.mean--
		} else {
			im.mean++
		}
	case mag < 8*im.n:
		// Small quotient: subtract-loop (cheap on NFP, ~1 cycle per
		// step, bounded by 8).
		q := int64(0)
		for mag >= im.n {
			mag -= im.n
			q++
		}
		if neg {
			q = -q
		}
		im.mean += q
	default:
		// Outlier: take the real division hit.
		im.mean += delta / im.n
		im.DivisionsUsed++
	}
}

// Mean returns the integer running mean.
func (im *IntMean) Mean() int64 { return im.mean }

// Count returns the number of observed samples.
func (im *IntMean) Count() int64 { return im.n }

// StateBytes reports 16 bytes (n + mean).
func (im *IntMean) StateBytes() int { return 16 }

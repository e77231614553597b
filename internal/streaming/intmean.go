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

// Merge folds another running mean into im with the symmetric
// weighted formula (nₐ·mₐ + n_b·m_b)/(nₐ+n_b) — integer arithmetic,
// so the result is exactly commutative; associativity holds to ±1
// from the two truncating divisions taken in different orders. The
// one division is charged to DivisionsUsed like any other expensive
// operation (merges are per-eviction, not per-packet, so the NFP can
// afford it). The zero value is the identity. The receiver's Exact
// mode is preserved.
func (im *IntMean) Merge(o *IntMean) {
	if o.n == 0 {
		return
	}
	if im.n == 0 {
		im.n, im.mean = o.n, o.mean
		im.DivisionsUsed += o.DivisionsUsed
		im.ComparesUsed += o.ComparesUsed
		return
	}
	total := im.n + o.n
	im.mean = (im.n*im.mean + o.n*o.mean) / total
	im.n = total
	im.DivisionsUsed += o.DivisionsUsed + 1
	im.ComparesUsed += o.ComparesUsed
}

// Mean returns the integer running mean.
func (im *IntMean) Mean() int64 { return im.mean }

// Count returns the number of observed samples.
func (im *IntMean) Count() int64 { return im.n }

// StateBytes reports 16 bytes (n + mean).
func (im *IntMean) StateBytes() int { return 16 }

// Reset clears the state and counters, preserving the Exact mode.
func (im *IntMean) Reset() {
	im.n, im.mean, im.DivisionsUsed, im.ComparesUsed = 0, 0, 0, 0
}

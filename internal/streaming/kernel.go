package streaming

import (
	"math"
)

// Kernels are the fixed-size reducer families compiled onto a group
// record: the FE-NIC keeps one record of uint64 words per group with
// every state at an offset resolved when the plan is compiled, and a
// Kernel is one family's update and read-out over its words. The
// Reducer types beside them stay as the reference the kernels are held
// to, bit for bit (TestKernelsMatchReducers): same float operations in
// the same order, so a kernel's features are a private reducer's.
//
// Word layouts (a float is stored as its IEEE bits, a zeroed state is
// the empty state):
//
//	f_sum       sum
//	f_max/min   value                      (seen is Step.First)
//	Welford     n, mean, M2
//	moments     n, mean, M2, M3, M4
//	2D          fwd Welford, bwd Welford, lastResFwd, lastResBwd, SP, pairs
//	histogram   n, then the uint32 bins two to a word, even bin low
//	fd_* 1D     w, LS, SS                  (clock is the group's)
//	fd_* 2D     SR, wSR, lastResA, lastResB, then per direction w, LS, SS, clock
//
// What a reducer keeps per state and a kernel does not: λ, bin width,
// bin count and the max/min mode live in the Kernel (the op table), and
// the damped families share their group's clock — every state of a
// group observes every cell of it, so their lastTime/started fields
// were equal by construction. Only a 2D direction half, which observes
// just the cells of its sign, keeps a clock of its own.

type kind uint8

const (
	kindSum kind = iota
	kindExtremum
	kindWelford
	kindMoments
	kindBidir
	kindHist
	kindDamped1D
	kindDamped2D
)

// Kernel is one inline state of a group record: which family, how many
// words, and the parameters the reducer type would have carried.
type Kernel struct {
	kind kind
	// Words is the state's size in the record; StateBytes the family's
	// modelled footprint, what its Reducer reports.
	Words      int
	StateBytes int
	// Lambda is the decay rate of a damped family (0 otherwise) and Lane
	// its Decay.Lane, which whoever lays out the record assigns.
	Lambda float64
	Lane   int

	max   bool  // f_max rather than f_min
	width int64 // histogram bin width
	bins  int   // histogram bin count
}

// KernelFor resolves the kernel of f's family. inline is false for the
// families whose storage grows with the data (f_array, f_card): they
// stay Reducers behind a pointer. The parameters are validated exactly
// as New validates them.
func KernelFor(f Func, p Params) (k Kernel, inline bool, err error) {
	r, err := New(f, p)
	if err != nil {
		return Kernel{}, false, err
	}
	k = Kernel{StateBytes: r.StateBytes()}
	switch FamilyOf(f, p).Func {
	case FSum:
		k.kind, k.Words = kindSum, 1
	case FMax, FMin:
		k.kind, k.Words, k.max = kindExtremum, 1, f == FMax
	case FMean:
		k.kind, k.Words = kindWelford, 3
	case FSkew:
		k.kind, k.Words = kindMoments, 5
	case FMag:
		k.kind, k.Words = kindBidir, 10
	case FHist:
		k.kind, k.Words, k.width, k.bins = kindHist, 1+(p.Bins+1)/2, p.BinWidth, p.Bins
	case FDWeight:
		k.kind, k.Words, k.Lambda = kindDamped1D, 3, p.Lambda
	case FD2DMag:
		k.kind, k.Words, k.Lambda = kindDamped2D, 12, p.Lambda
	default:
		return Kernel{}, false, nil
	}
	return k, true, nil
}

// DecayFactor is the damped window's decay over dt nanoseconds at rate
// lambda: 2^(-λ·Δt).
func DecayFactor(lambda float64, dt int64) float64 {
	return math.Exp2(-lambda * (float64(dt) / 1e9))
}

// Decay holds the decay factors of the cell in hand, by rate (a lane)
// and interval. The groups a packet belongs to at its granularities,
// and the direction halves of their 2D states, mostly stand the same
// few intervals behind it — a flow alone in its socket, a socket alone
// in its channel — and a factor is a pure function of (λ, Δt), so one
// Decay serves every granularity of a runtime and a cell computes each
// distinct factor once. Reset forgets the intervals between cells.
type Decay struct {
	lambdas []float64
	rows    []decayRow
	n       int // rows holding an interval of this cell
}

type decayRow struct {
	dt int64
	f  []float64 // by lane; valid where ok
	ok []bool
}

// Lane returns the lane of rate lambda, adding one for a new rate.
func (d *Decay) Lane(lambda float64) int {
	for i, l := range d.lambdas {
		if l == lambda {
			return i
		}
	}
	d.lambdas = append(d.lambdas, lambda)
	d.rows = nil // sized to the lanes on first use
	return len(d.lambdas) - 1
}

// Reset starts a new cell.
func (d *Decay) Reset() { d.n = 0 }

// row returns the row of interval dt, claiming one when the cell has
// not met dt before.
//
//superfe:hotpath
func (d *Decay) row(dt int64) *decayRow {
	for i := range d.rows[:d.n] {
		if d.rows[i].dt == dt {
			return &d.rows[i]
		}
	}
	if d.n == len(d.rows) {
		d.addRow()
	}
	r := &d.rows[d.n]
	d.n++
	r.dt = dt
	clear(r.ok)
	return r
}

// addRow grows the memo by one interval; it settles at the most
// distinct intervals one cell has shown.
//
//superfe:coldpath
func (d *Decay) addRow() {
	d.rows = append(d.rows, decayRow{f: make([]float64, len(d.lambdas)), ok: make([]bool, len(d.lambdas))})
}

// factor returns lane's factor over r's interval, computing it on the
// cell's first request.
func (d *Decay) factor(r *decayRow, lane int) float64 {
	if !r.ok[lane] {
		r.f[lane], r.ok[lane] = DecayFactor(d.lambdas[lane], r.dt), true
	}
	return r.f[lane]
}

// Step is what one cell does to its group's clock, computed once per
// cell and shared by every state of the group.
type Step struct {
	// First: the group's first cell. States are empty and the clock
	// starts at Now.
	First bool
	// Now is the cell's time (ns) and Prev the clock before it: the
	// latest time any earlier cell carried. A reordered cell's Now lies
	// behind Prev.
	Now, Prev int64
	// decays: the clock advances (Now > Prev on a started group), and
	// factors[lane] is DecayFactor(λ, Now-Prev) for each of the group's
	// lanes. A cell at or before the clock decays nothing.
	decays  bool
	factors []float64
	memo    *Decay
}

// Begin starts the step of a cell at now on a group whose clock stands
// at prev (first: the group has absorbed no cell, and its clock starts
// here), and returns the clock after the cell. lanes are the lanes the
// group's states decay on.
//
//superfe:hotpath
func (s *Step) Begin(d *Decay, lanes []int, first bool, prev, now int64) int64 {
	s.First, s.Now, s.Prev, s.memo = first, now, prev, d
	s.decays = !first && now > prev
	if !s.decays {
		if first {
			return now
		}
		return prev
	}
	if len(lanes) > 0 {
		r := d.row(now - prev)
		for _, l := range lanes {
			d.factor(r, l)
		}
		s.factors = r.f
	}
	return now
}

func f64(w uint64) float64 { return math.Float64frombits(w) }
func u64(f float64) uint64 { return math.Float64bits(f) }

// Observe folds one sample into the state at st[:k.Words], under the
// step s.
//
//superfe:hotpath
func (k *Kernel) Observe(st []uint64, x int64, s *Step) {
	switch k.kind {
	case kindSum:
		sumObserve(st, x)
	case kindExtremum:
		k.extremumObserve(st, x, s.First)
	case kindWelford:
		welfordObserve(st, float64(x))
	case kindMoments:
		momentsObserve(st, float64(x))
	case kindBidir:
		bidirObserve(st, x)
	case kindHist:
		k.histObserve(st, x)
	case kindDamped1D:
		w, ls, ss := f64(st[0]), f64(st[1]), f64(st[2])
		if s.decays {
			f := s.factors[k.Lane]
			w *= f
			ls *= f
			ss *= f
		}
		xf := float64(x)
		w++
		ls += xf
		ss += xf * xf
		st[0], st[1], st[2] = u64(w), u64(ls), u64(ss)
	case kindDamped2D:
		k.damped2DObserve(st, x, s)
	}
}

// ObserveRun folds the samples xs, in order, into the state at
// st[:k.Words]: one op's inputs over a run of cells of one group, with
// the family switched on once, outside the loop. s is the step of
// xs[0], the only sample of a run that can be its group's first. A
// damped family reads the group's clock, which moves from cell to
// cell, so it is only ever fed one sample at a time (Observe): a
// program that keeps decay lanes never forms runs (nicsim).
//
//superfe:hotpath
func (k *Kernel) ObserveRun(st []uint64, xs []int64, s *Step) {
	switch k.kind {
	case kindSum:
		for _, x := range xs {
			sumObserve(st, x)
		}
	case kindExtremum:
		for i, x := range xs {
			k.extremumObserve(st, x, i == 0 && s.First)
		}
	case kindWelford:
		for _, x := range xs {
			welfordObserve(st, float64(x))
		}
	case kindMoments:
		for _, x := range xs {
			momentsObserve(st, float64(x))
		}
	case kindBidir:
		for _, x := range xs {
			bidirObserve(st, x)
		}
	case kindHist:
		for _, x := range xs {
			k.histObserve(st, x)
		}
	default: // the damped families, one sample
		for _, x := range xs {
			k.Observe(st, x, s)
		}
	}
}

// The families' per-sample updates, which Observe and ObserveRun share.

func sumObserve(st []uint64, x int64) { st[0] += uint64(x) }

// extremumObserve: first is the group's first sample.
func (k *Kernel) extremumObserve(st []uint64, x int64, first bool) {
	if v := int64(st[0]); first || (k.max == (x > v) && x != v) {
		st[0] = uint64(x)
	}
}

func (k *Kernel) histObserve(st []uint64, x int64) {
	st[0]++
	idx := 0
	if x >= 0 {
		idx = k.bins - 1
		if q := x / k.width; q < int64(idx) {
			idx = int(q)
		}
	}
	if w := &st[1+idx>>1]; idx&1 == 0 {
		*w = *w&^math.MaxUint32 | uint64(uint32(*w)+1)
	} else {
		*w += 1 << 32
	}
}

func welfordObserve(st []uint64, x float64) {
	n := st[0] + 1
	mean := f64(st[1])
	delta := x - mean
	mean += delta / float64(n)
	st[0], st[1] = n, u64(mean)
	st[2] = u64(f64(st[2]) + delta*(x-mean))
}

// welfordVar is the population variance of a Welford triple.
func welfordVar(st []uint64) float64 {
	if st[0] == 0 {
		return 0
	}
	return f64(st[2]) / float64(st[0])
}

func momentsObserve(st []uint64, x float64) {
	n1 := float64(st[0])
	st[0]++
	n := float64(st[0])
	mean, m2, m3, m4 := f64(st[1]), f64(st[2]), f64(st[3]), f64(st[4])
	delta := x - mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	mean += deltaN
	m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m2 - 4*deltaN*m3
	m3 += term1*deltaN*(n-2) - 3*deltaN*m2
	m2 += term1
	st[1], st[2], st[3], st[4] = u64(mean), u64(m2), u64(m3), u64(m4)
}

func bidirObserve(st []uint64, x int64) {
	self, other, mine := st[0:3], 7, 6 // forward: residual in st[6], the other stream's in st[7]
	if x < 0 {
		x, self, other, mine = -x, st[3:6], 6, 7
	}
	xf := float64(x)
	res := xf - f64(self[1])
	welfordObserve(self, xf)
	st[mine] = u64(res)
	st[8] = u64(f64(st[8]) + res*f64(st[other]))
	st[9]++
}

// dampedMean and dampedVar read a (w, LS, SS) triple.
func dampedMean(st []uint64) float64 {
	w := f64(st[0])
	if w == 0 {
		return 0
	}
	return f64(st[1]) / w
}

func dampedVar(st []uint64, mean float64) float64 {
	w := f64(st[0])
	if w == 0 {
		return 0
	}
	v := f64(st[2])/w - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

func (k *Kernel) damped2DObserve(st []uint64, xi int64, s *Step) {
	if s.decays {
		f := s.factors[k.Lane]
		st[0], st[1] = u64(f64(st[0])*f), u64(f64(st[1])*f)
	}
	half, mine, other := st[4:8], 2, 3
	if xi < 0 {
		xi, half, mine, other = -xi, st[8:12], 3, 2
	}
	x := float64(xi)
	res := x - dampedMean(half)
	// The half's own clock; a half that has seen a sample weighs at
	// least 1. When the clock stands where the group's stood, the half
	// decays over the same interval as the group: the factor is the
	// shared one.
	w, ls, ss := f64(half[0]), f64(half[1]), f64(half[2])
	f, decay := 0.0, false
	switch last := int64(half[3]); {
	case half[0] == 0:
		half[3] = uint64(s.Now)
	case last == s.Prev:
		if s.decays {
			f, decay = s.factors[k.Lane], true
		}
	case s.Now > last:
		f, decay = s.memo.factor(s.memo.row(s.Now-last), k.Lane), true
	}
	if decay {
		w *= f
		ls *= f
		ss *= f
		half[3] = uint64(s.Now)
	}
	w++
	ls += x
	ss += x * x
	half[0], half[1], half[2] = u64(w), u64(ls), u64(ss)
	st[mine] = u64(res)
	st[0] = u64(f64(st[0]) + res*f64(st[other]))
	st[1] = u64(f64(st[1]) + 1)
}

// clampPCC bounds a correlation estimate to [-1, 1]: what
// math.Max(-1, math.Min(1, p)) returns for every p, NaN included.
func clampPCC(p float64) float64 {
	switch {
	case p > 1:
		return 1
	case p < -1:
		return -1
	}
	return p
}

// AppendViews appends the features of consecutive views of one state —
// a run — to dst. What the views of a family share is computed once:
// a 1D triple's LS/w serves mean and stddev, a 2D state's two means and
// variances serve magnitude, radius and correlation (the host form of
// the paper's division elimination).
//
//superfe:hotpath
func (k *Kernel) AppendViews(dst []float64, st []uint64, views []View) []float64 {
	switch k.kind {
	case kindSum, kindExtremum:
		for range views {
			dst = append(dst, float64(int64(st[0])))
		}
	case kindWelford:
		v := welfordVar(st)
		for _, vw := range views {
			switch vw.Func {
			case FVar:
				dst = append(dst, v)
			case FStd:
				dst = append(dst, math.Sqrt(v))
			default:
				dst = append(dst, f64(st[1]))
			}
		}
	case kindMoments:
		for _, vw := range views {
			dst = append(dst, momentsView(st, vw.Func == FKurtosis))
		}
	case kindBidir:
		mf, mb := f64(st[1]), f64(st[4])
		vf, vb := welfordVar(st[0:3]), welfordVar(st[3:6])
		cov := 0.0
		if n := st[9]; n != 0 {
			cov = f64(st[8]) / float64(n)
		}
		for _, vw := range views {
			switch vw.Func {
			case FRadius:
				dst = append(dst, math.Sqrt(vf*vf+vb*vb))
			case FCov:
				dst = append(dst, cov)
			case FPCC:
				p := 0.0
				if denom := math.Sqrt(vf) * math.Sqrt(vb); denom != 0 {
					p = clampPCC(cov / denom)
				}
				dst = append(dst, p)
			default:
				dst = append(dst, math.Sqrt(mf*mf+mb*mb))
			}
		}
	case kindHist:
		for _, vw := range views {
			dst = k.appendHist(dst, st, vw)
		}
	case kindDamped1D:
		mean := dampedMean(st)
		for _, vw := range views {
			switch vw.Func {
			case FDMean:
				dst = append(dst, mean)
			case FDStd:
				dst = append(dst, math.Sqrt(dampedVar(st, mean)))
			default:
				dst = append(dst, f64(st[0]))
			}
		}
	case kindDamped2D:
		a, b := st[4:8], st[8:12]
		ma, mb := dampedMean(a), dampedMean(b)
		va, vb := dampedVar(a, ma), dampedVar(b, mb)
		cov := 0.0
		if wSR := f64(st[1]); wSR != 0 {
			cov = f64(st[0]) / wSR
		}
		for _, vw := range views {
			switch vw.Func {
			case FD2DRadius:
				dst = append(dst, math.Sqrt(va*va+vb*vb))
			case FD2DCov:
				dst = append(dst, cov)
			case FD2DPCC:
				p := 0.0
				if denom := math.Sqrt(va) * math.Sqrt(vb); denom != 0 {
					p = clampPCC(cov / denom)
				}
				dst = append(dst, p)
			default:
				dst = append(dst, math.Sqrt(ma*ma+mb*mb))
			}
		}
	}
	return dst
}

func momentsView(st []uint64, kurtosis bool) float64 {
	m2 := f64(st[2])
	if st[0] < 2 || m2 == 0 {
		return 0
	}
	n := float64(st[0])
	if kurtosis {
		return n*f64(st[4])/(m2*m2) - 3
	}
	return math.Sqrt(n) * f64(st[3]) / math.Pow(m2, 1.5)
}

// bin reads histogram bin i.
func bin(st []uint64, i int) uint32 { return uint32(st[1+i>>1] >> (32 * uint(i&1))) }

func (k *Kernel) appendHist(dst []float64, st []uint64, v View) []float64 {
	switch v.Func {
	case FPercent:
		return append(dst, k.quantile(st, v.Quantile))
	case FPDF, FCDF:
		n := float64(st[0])
		if st[0] == 0 {
			n = 1 // every bin is empty: emit zeros, not 0/0
		}
		var cum uint64
		for i := 0; i < k.bins; i++ {
			if v.Func == FPDF {
				cum = 0 // the density does not accumulate
			}
			cum += uint64(bin(st, i))
			dst = append(dst, float64(cum)/n)
		}
	default: // ft_hist
		for i := 0; i < k.bins; i++ {
			dst = append(dst, float64(bin(st, i)))
		}
	}
	return dst
}

// quantile is Histogram.Quantile over record words.
func (k *Kernel) quantile(st []uint64, q float64) float64 {
	if st[0] == 0 {
		return 0
	}
	target := q * float64(st[0])
	if target < 1 {
		target = 1
	}
	var cum float64
	for i := 0; i < k.bins; i++ {
		c := bin(st, i)
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return float64(int64(i)*k.width) + frac*float64(k.width)
		}
		cum = next
	}
	return float64(int64(k.bins) * k.width)
}

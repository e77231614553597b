package streaming

import (
	"cmp"
	"math"
	"math/bits"
)

// Kernels are the reducer families compiled onto a group record: the
// FE-NIC keeps one record of uint64 words per group with every state at
// an offset resolved when the plan is compiled, and a Kernel is one
// family's update and read-out over its words. The oracle's reducers
// (internal/baseline) are the reference the kernels are held to, bit
// for bit (baseline.TestKernelsMatchReducers), and share no update code
// with them, only shared.go's arithmetic: same float operations in the
// same order, so a kernel's features are a private reducer's, and a
// slip on either side shows as a difference.
//
// Word layouts (a float is stored as its IEEE bits, a zeroed state is
// the empty state):
//
//	f_sum       sum                        (over an f_one map: none, the count)
//	f_max/min   value                      (the first sample: Step.N = 0)
//	Welford     mean, M2
//	moments     mean, M2, M3, M4
//	2D          fwd n, mean, M2, bwd n, mean, M2, lastResFwd, lastResBwd, SP
//	histogram   the uint32 bins two to a word, even bin low
//	fd_* 1D     per lane: w, LS, SS        (clock is the group's)
//	fd_* 2D     per lane: SR, wSR, lastResA, lastResB, then per direction w, LS, SS, clock
//	f_card      the 2^bits HyperLogLog registers, eight bytes to a word, register i in byte i%8 of word i/8
//	log         the index + 1 of the state's sample log in its Logs (0: none yet)
//
// A log is the one state whose storage grows with the data: f_array's
// samples up to its cap, and every state of the store-everything
// ablation (NaiveKernel), which keeps each sample with its time. The
// samples live in a Logs table of the program, out of the record (the
// NFP would keep them in EMEM); the record word finds them.
//
// What a reducer keeps per state and a kernel does not: λ, bin width,
// bin count and the max/min mode live in the Kernel (the op table), and
// every state of a group observes every cell of it, so what counts or
// times the group's samples is the group's: the damped families share
// its clock (their lastTime/started fields were equal by construction),
// and a count of samples — Welford's and the moments' n, a histogram's
// total, the 2D state's pair count, an f_sum over an f_one map — is its
// cell count, which the caller passes (Step.N, and Read's n). Only a 2D
// direction half, which observes just the cells of its sign, keeps a
// clock and a count of its own.
//
// A damped kernel has lanes: one per decay rate, each the words of one
// λ's state, one after the other (Fuse). The states of one source at
// several rates see the same samples on the same clock, so one kernel
// takes the sample once and updates every lane; a lane's arithmetic is
// its single-rate kernel's, in the same order.

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
	kindCard
	kindLog
	// kindCount is an f_sum over an f_one map (OverOnes): the sum is the
	// group's cell count, so the state keeps no word.
	kindCount
)

// Kernel is one state of a group record: which family, how many words,
// and the parameters a reducer would carry.
type Kernel struct {
	kind kind
	max  bool  // f_max rather than f_min
	bits uint8 // f_card: log2 of the register count
	// Words is the state's size in the record, all its lanes;
	// stateBytes the family's modelled footprint for one lane (a log's
	// grows: Bytes).
	Words, stateBytes int
	// lanes are a damped kernel's Decay lanes, one per rate; lane i's
	// words follow lane i-1's, damped1DWords or damped2DWords each.
	lanes []int

	width int64 // histogram bin width
	bins  int   // histogram bin count

	// A log's table and cap. naive is set on a store-everything log:
	// every sample is kept with its time, and read through the batch
	// algorithm of the reducer it stands for (its data left empty).
	logs   *Logs
	maxLen int
	naive  *NaiveReducer
}

// The words of one lane of a damped kernel.
const (
	damped1DWords = 3
	damped2DWords = 12
)

// KernelFor resolves the kernel of f's family, once Validate accepts
// the parameters. A damped family's kernel has one lane, d's lane of
// its rate; f_array's keeps its samples in logs (neither is read for
// the other families).
func KernelFor(f Func, p Params, d *Decay, logs *Logs) (Kernel, error) {
	if err := Validate(f, p); err != nil {
		return Kernel{}, err
	}
	fam := FamilyOf(f, p)
	k := Kernel{stateBytes: stateBytes(fam)}
	switch fam.Func {
	case FSum:
		k.kind, k.Words = kindSum, 1
	case FMax, FMin:
		k.kind, k.Words, k.max = kindExtremum, 1, f == FMax
	case FMean:
		k.kind, k.Words = kindWelford, 2
	case FSkew:
		k.kind, k.Words = kindMoments, 4
	case FMag:
		k.kind, k.Words = kindBidir, 9
	case FHist:
		k.kind, k.Words, k.width, k.bins = kindHist, (p.Bins+1)/2, p.BinWidth, p.Bins
	case FDWeight:
		k.kind, k.Words, k.lanes = kindDamped1D, damped1DWords, []int{d.Lane(p.Lambda)}
	case FD2DMag:
		k.kind, k.Words, k.lanes = kindDamped2D, damped2DWords, []int{d.Lane(p.Lambda)}
	case FCard:
		k.kind, k.bits = kindCard, uint8(cmp.Or(p.HLLBits, DefaultHLLBits))
		k.Words = (1<<k.bits + 7) / 8
	case FArray:
		k.kind, k.Words, k.logs, k.maxLen = kindLog, 1, logs, cmp.Or(p.MaxLen, DefaultMaxArray)
	default:
		panic("streaming: a family without a kernel")
	}
	return k, nil
}

// OverOnes is an f_sum kernel k over an f_one map, whose every sample
// is 1: the sum is the group's cell count, which the caller passes, so
// the state keeps no word. Its modelled footprint stays the sum's. It
// panics on a kernel of another family.
func (k Kernel) OverOnes() Kernel {
	if k.kind != kindSum {
		panic("streaming: OverOnes of a kernel that is not an f_sum")
	}
	k.kind, k.Words = kindCount, 0
	return k
}

// NaiveKernel is f's state in the store-everything ablation (Figure
// 15): a log in logs of every sample and its time, read through
// NaiveReducer's batch algorithm. It answers for f alone, whatever
// FamilyOf says, once Validate accepts the parameters.
func NaiveKernel(f Func, p Params, logs *Logs) (Kernel, error) {
	if err := Validate(f, p); err != nil {
		return Kernel{}, err
	}
	return Kernel{kind: kindLog, Words: 1, logs: logs, naive: NewNaive(f, p)}, nil
}

// Logs is the sample logs of one program's log states, every group's:
// a state's record word holds its log's index + 1, taken on the state's
// first sample.
type Logs struct {
	logs []sampleLog
}

// sampleLog is one state's samples, and a naive log's sample times.
type sampleLog struct {
	xs, ts []int64
}

// of returns the log the record word w names, taking one for a state
// that has none yet.
func (l *Logs) of(w *uint64) *sampleLog {
	if *w == 0 {
		l.open(w)
	}
	return &l.logs[*w-1]
}

// open takes a new log for the state whose record word is w.
//
//superfe:coldpath once per group and log state, on its first sample
func (l *Logs) open(w *uint64) {
	l.logs = append(l.logs, sampleLog{})
	*w = uint64(len(l.logs))
}

// at returns the log the record word w names; an empty one for a state
// that has taken none.
func (l *Logs) at(w uint64) sampleLog {
	if w == 0 {
		return sampleLog{}
	}
	return l.logs[w-1]
}

// Bytes is the modelled footprint of the state at st[:k.Words], for one
// lane: its family's (stateBytes), or what a log holds, 8 bytes a
// sample and 8 a time.
func (k *Kernel) Bytes(st []uint64) int {
	if k.kind != kindLog {
		return k.stateBytes
	}
	l := k.logs.at(st[0])
	return 8 * (len(l.xs) + len(l.ts))
}

// Fuse lays damped kernels of one kind out as one kernel of all their
// lanes, in order: the states of one source at several rates. It
// panics unless every kernel is a damped one of ks[0]'s kind.
func Fuse(ks []Kernel) Kernel {
	k := ks[0]
	k.Words, k.lanes = 0, nil
	for _, o := range ks {
		if o.kind != k.kind || len(o.lanes) == 0 {
			panic("streaming: Fuse of kernels that are not damped states of one kind")
		}
		k.Words += o.Words
		k.lanes = append(k.lanes, o.lanes...)
	}
	return k
}

// Lanes returns a damped kernel's Decay lanes, one per rate; nil for
// the other families.
func (k *Kernel) Lanes() []int { return k.lanes }

// Decay holds the decay factors of the cell in hand, by interval and
// rate (a lane). The groups a packet belongs to at its granularities,
// and the direction halves of their 2D states, mostly stand the same
// few intervals behind it — a flow alone in its socket, a socket alone
// in its channel — and a factor is a pure function of (λ, Δt), so one
// Decay serves every granularity of a runtime and a cell computes each
// distinct interval's factors once, every lane's when it first meets
// the interval. Reset forgets the intervals between cells.
type Decay struct {
	lambdas []float64
	rows    []decayRow
	n       int // rows holding an interval of this cell
}

type decayRow struct {
	dt int64
	f  []float64 // by lane
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

// row returns the factors of interval dt by lane, computing every
// lane's in one pass (exp2Row) when the cell has not met dt before.
//
//superfe:hotpath
func (d *Decay) row(dt int64) []float64 {
	for i := range d.rows[:d.n] {
		if d.rows[i].dt == dt {
			return d.rows[i].f
		}
	}
	if d.n == len(d.rows) {
		d.addRow()
	}
	r := &d.rows[d.n]
	d.n++
	r.dt = dt
	exp2Row(r.f, d.lambdas, dt)
	return r.f
}

// addRow grows the memo by one interval; it settles at the most
// distinct intervals one cell has shown.
//
//superfe:coldpath
func (d *Decay) addRow() {
	d.rows = append(d.rows, decayRow{f: make([]float64, len(d.lambdas))})
}

// Step is what one cell does to its group's clock and count, computed
// once per cell and shared by every state of the group.
type Step struct {
	// N is the cells the group absorbed before this one: the count of
	// samples every state has seen (each observes every cell). At 0 the
	// cell is the group's first: states are empty and the clock starts
	// at Now.
	N uint64
	// Now is the cell's time (ns) and Prev the clock before it: the
	// latest time any earlier cell carried. A reordered cell's Now lies
	// behind Prev.
	Now, Prev int64
	// decays: the clock advances (Now > Prev on a started group), and
	// factors[lane] is DecayFactor(λ, Now-Prev) for every lane of the
	// memo. A cell at or before the clock decays nothing.
	decays  bool
	factors []float64
	memo    *Decay
}

// Begin starts the step of a cell at now on a group that has absorbed
// n cells and whose clock stands at prev (n = 0: the clock starts
// here), and returns the clock after the cell. lanes are the lanes the
// group's states decay on; a group with none takes no factor.
//
//superfe:hotpath
func (s *Step) Begin(d *Decay, lanes []int, n uint64, prev, now int64) int64 {
	s.N, s.Now, s.Prev, s.memo = n, now, prev, d
	first := n == 0
	s.decays = !first && now > prev
	if !s.decays {
		if first {
			return now
		}
		return prev
	}
	if len(lanes) > 0 {
		s.factors = d.row(now - prev)
	}
	return now
}

func f64(w uint64) float64 { return math.Float64frombits(w) }
func u64(f float64) uint64 { return math.Float64bits(f) }

// Observe folds one sample into the state at st[:k.Words], every lane
// of a damped one, under the step s: the sample is the group's s.N-th,
// counting from 0.
//
//superfe:hotpath
func (k *Kernel) Observe(st []uint64, x int64, s *Step) {
	switch k.kind {
	case kindSum:
		sumObserve(st, x)
	case kindExtremum:
		k.extremumObserve(st, x, s.N == 0)
	case kindWelford:
		welfordObserve(st, float64(x), s.N)
	case kindMoments:
		momentsObserve(st, float64(x), s.N)
	case kindBidir:
		bidirObserve(st, x)
	case kindHist:
		k.histObserve(st, x)
	case kindDamped1D:
		k.damped1DLanes(st, x, s, nil, nil)
	case kindDamped2D:
		k.damped2DLanes(st, x, s, nil, nil)
	case kindCard:
		k.cardObserve(st, x)
	case kindLog:
		k.logObserve(st, x, s.Now)
	}
}

// ObserveRead is Observe followed by Read of p into win, in one pass
// over a damped kernel's lanes, the pass Read runs without the fold:
// each lane is read out as soon as the sample is folded into it, from
// what was just stored, so the window ends as Observe then Read leave
// it. The other families observe, then read, counting the sample (Read
// of s.N+1).
//
//superfe:hotpath
func (k *Kernel) ObserveRead(st []uint64, x int64, s *Step, win []float64, p *ReadPlan) {
	switch k.kind {
	case kindDamped1D:
		win = win[:p.end:p.end] // panics on a window too short for the plan
		k.damped1DLanes(st, x, s, win, p.at)
	case kindDamped2D:
		win = win[:p.end:p.end]
		k.damped2DLanes(st, x, s, win, p.at)
	default:
		k.Observe(st, x, s)
		k.Read(win, st, s.N+1, p)
		return
	}
	p.copy(win)
}

// ObserveRun folds the samples xs, in order, into the state at
// st[:k.Words]: one op's inputs over a run of cells of one group, with
// the family switched on once, outside the loop. nows[i] is xs[i]'s
// time, which only a naive log keeps. s is the step of xs[0], the
// group's s.N-th sample; xs[i] is its (s.N+i)-th. A damped family reads
// the group's clock, which moves from cell to cell, so it is only ever
// fed one sample at a time (Observe): a program that keeps decay lanes
// never forms runs (nicsim).
//
//superfe:hotpath
func (k *Kernel) ObserveRun(st []uint64, xs, nows []int64, s *Step) {
	switch k.kind {
	case kindSum:
		for _, x := range xs {
			sumObserve(st, x)
		}
	case kindExtremum:
		for i, x := range xs {
			k.extremumObserve(st, x, i == 0 && s.N == 0)
		}
	case kindWelford:
		for i, x := range xs {
			welfordObserve(st, float64(x), s.N+uint64(i))
		}
	case kindMoments:
		for i, x := range xs {
			momentsObserve(st, float64(x), s.N+uint64(i))
		}
	case kindBidir:
		for _, x := range xs {
			bidirObserve(st, x)
		}
	case kindHist:
		for _, x := range xs {
			k.histObserve(st, x)
		}
	case kindCard:
		for _, x := range xs {
			k.cardObserve(st, x)
		}
	case kindLog:
		l := k.logs.of(&st[0])
		if k.naive != nil {
			l.xs, l.ts = append(l.xs, xs...), append(l.ts, nows...)
			break
		}
		l.xs = append(l.xs, xs[:min(len(xs), k.maxLen-len(l.xs))]...)
	case kindCount:
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
	idx := 0
	if x >= 0 {
		idx = k.bins - 1
		if q := x / k.width; q < int64(idx) {
			idx = int(q)
		}
	}
	if w := &st[idx>>1]; idx&1 == 0 {
		*w = *w&^math.MaxUint32 | uint64(uint32(*w)+1)
	} else {
		*w += 1 << 32
	}
}

// cardObserve raises the sample's register to the leading-zero run of
// the hash bits past its index, plus one.
func (k *Kernel) cardObserve(st []uint64, x int64) {
	v := Hash32(x)
	i := v >> (32 - k.bits)
	rho := uint64(bits.LeadingZeros32(v<<k.bits|1)) + 1
	w, sh := &st[i>>3], 8*(i&7)
	if rho > *w>>sh&0xff {
		*w = *w&^(0xff<<sh) | rho<<sh
	}
}

// logObserve appends x to the state's log: with its time ts on a naive
// log, else while the log is under its cap.
func (k *Kernel) logObserve(st []uint64, x, ts int64) {
	l := k.logs.of(&st[0])
	if k.naive != nil {
		l.xs, l.ts = append(l.xs, x), append(l.ts, ts)
	} else if len(l.xs) < k.maxLen {
		l.xs = append(l.xs, x)
	}
}

// welfordObserve folds x into a Welford pair (mean, M2) that has seen
// n samples.
func welfordObserve(st []uint64, x float64, n uint64) {
	mean := f64(st[0])
	delta := x - mean
	mean += delta / float64(n+1)
	st[0] = u64(mean)
	st[1] = u64(f64(st[1]) + delta*(x-mean))
}

// welfordVar is the population variance of a Welford pair over n
// samples.
func welfordVar(st []uint64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return f64(st[1]) / float64(n)
}

// momentsObserve folds x into moments (mean, M2, M3, M4) that have seen
// count samples.
func momentsObserve(st []uint64, x float64, count uint64) {
	n1 := float64(count)
	n := float64(count + 1)
	mean, m2, m3, m4 := f64(st[0]), f64(st[1]), f64(st[2]), f64(st[3])
	delta := x - mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	mean += deltaN
	m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m2 - 4*deltaN*m3
	m3 += term1*deltaN*(n-2) - 3*deltaN*m2
	m2 += term1
	st[0], st[1], st[2], st[3] = u64(mean), u64(m2), u64(m3), u64(m4)
}

// bidirObserve folds x into its sign's direction half, a Welford triple
// (n, mean, M2): the half counts only its own samples. The pairs the
// co-moment SP sums over are every sample, the group's count.
func bidirObserve(st []uint64, x int64) {
	self, other, mine := st[0:3], 7, 6 // forward: residual in st[6], the other stream's in st[7]
	if x < 0 {
		x, self, other, mine = -x, st[3:6], 6, 7
	}
	xf := float64(x)
	res := xf - f64(self[1])
	welfordObserve(self[1:], xf, self[0])
	self[0]++
	st[mine] = u64(res)
	st[8] = u64(f64(st[8]) + res*f64(st[other]))
}

// dampedMean and dampedVar read a (w, LS, SS) triple.
func dampedMean(w, ls float64) float64 {
	if w == 0 {
		return 0
	}
	return ls / w
}

func dampedVar(w, ss, mean float64) float64 {
	if w == 0 {
		return 0
	}
	v := ss/w - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

// damped1DLanes is the one pass over a 1D kernel's lanes: under a step
// s it folds x into each lane, on the lane's own rate, and with places
// at it then stores the lane's members where at[lane] places them in
// win (weight, mean, std), from the values it just stored. Observe
// passes no places, Read no step.
func (k *Kernel) damped1DLanes(st []uint64, x int64, s *Step, win []float64, at [][4]uint32) {
	xf := float64(x)
	fold, decays, factors := s != nil, false, []float64(nil)
	if fold {
		decays, factors = s.decays, s.factors
	}
	for i, l := range k.lanes {
		ln := st[i*damped1DWords : (i+1)*damped1DWords : (i+1)*damped1DWords]
		w, ls, ss := f64(ln[0]), f64(ln[1]), f64(ln[2])
		if fold {
			if decays {
				f := factors[l]
				w *= f
				ls *= f
				ss *= f
			}
			w++
			ls += xf
			ss += xf * xf
			ln[0], ln[1], ln[2] = u64(w), u64(ls), u64(ss)
		}
		if at == nil {
			continue
		}
		p := &at[i]
		mean := dampedMean(w, ls)
		if q := p[0]; uint(q) < uint(len(win)) {
			win[q] = w
		}
		if q := p[1]; uint(q) < uint(len(win)) {
			win[q] = mean
		}
		if q := p[2]; uint(q) < uint(len(win)) {
			win[q] = math.Sqrt(dampedVar(w, ss, mean))
		}
	}
}

// damped2DLanes is the one pass over a 2D kernel's lanes: under a step
// s it folds xi into each lane — the sign picks the direction half
// once, and each lane decays on its own rate — and with places at it
// then stores the lane's members where at[lane] places them in win
// (magnitude, radius, cov, pcc), from the words it just stored. Observe
// passes no places, Read no step.
func (k *Kernel) damped2DLanes(st []uint64, xi int64, s *Step, win []float64, at [][4]uint32) {
	h, mine, other := 4, 2, 3 // forward: the half at 4:8
	if xi < 0 {
		xi, h, mine, other = -xi, 8, 3, 2
	}
	x := float64(xi)
	fold, decays, factors := s != nil, false, []float64(nil)
	if fold {
		decays, factors = s.decays, s.factors
	}
	// row is the factors of the half's own interval from rowFrom, fetched
	// once for every lane whose half clock stands there. The lanes take
	// the same samples, so their half clocks agree and one fetch serves
	// them all.
	var row []float64
	var rowFrom int64
	for i, l := range k.lanes {
		ln := st[i*damped2DWords : (i+1)*damped2DWords : (i+1)*damped2DWords]
		if fold {
			if decays {
				f := factors[l]
				ln[0], ln[1] = u64(f64(ln[0])*f), u64(f64(ln[1])*f)
			}
			half := ln[h : h+4 : h+4]
			w, ls, ss := f64(half[0]), f64(half[1]), f64(half[2])
			res := x - dampedMean(w, ls)
			// The half's own clock; a half that has seen a sample weighs
			// at least 1. When the clock stands where the group's stood,
			// the half decays over the same interval as the group: the
			// factor is the shared one.
			f, decay := 0.0, false
			switch last := int64(half[3]); {
			case half[0] == 0:
				half[3] = uint64(s.Now)
			case last == s.Prev:
				if decays {
					f, decay = factors[l], true
				}
			case s.Now > last:
				if row == nil || last != rowFrom {
					row, rowFrom = s.memo.row(s.Now-last), last
				}
				f, decay = row[l], true
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
			ln[mine] = u64(res)
			ln[0] = u64(f64(ln[0]) + res*f64(ln[other]))
			ln[1] = u64(f64(ln[1]) + 1)
		}
		if at == nil {
			continue
		}
		wa, wb := f64(ln[4]), f64(ln[8])
		ma, mb := dampedMean(wa, f64(ln[5])), dampedMean(wb, f64(ln[9]))
		va, vb := dampedVar(wa, f64(ln[6]), ma), dampedVar(wb, f64(ln[10]), mb)
		cov := 0.0
		if wSR := f64(ln[1]); wSR != 0 {
			cov = f64(ln[0]) / wSR
		}
		read2D(win, &at[i], ma, mb, va, vb, cov)
	}
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

// ReadPlan is a kernel's part of a read-out compiled at deploy: for
// every lane, the window position of each family member some view
// reads, so Read stores a member where it goes as it computes it. What
// the members of a family share is computed once per lane — a 1D
// triple's LS/w serves mean and stddev, a 2D state's two means and
// variances serve magnitude, radius and correlation (the host form of
// the paper's division elimination) — and a member no view reads has
// no position and is not computed.
type ReadPlan struct {
	at     [][4]uint32 // by lane: member m lands at at[lane][m], or nowhere if unread
	copies [][2]uint32 // a view that repeats a member: win[c[0]] = win[c[1]], its first position
	end    int         // one past the last position: Read cuts the window there
	// A histogram's or a log's views differ in shape: view j writes its
	// FeatureWidth values from pos[j].
	views []View
	pos   []int
}

// unread is the position of a member no view reads: past every window,
// so the one test that a position lies in the window both skips an
// unread member and spares the store its bounds check.
const unread = math.MaxUint32

// PlanRead compiles the read-out of views, in order, from every lane
// of k: lane i's view j lands at pos[i*len(views)+j] of the window Read
// writes (a multi-bin view's bins from there on).
func (k *Kernel) PlanRead(views []View, pos []int) ReadPlan {
	if len(pos) != max(1, len(k.lanes))*len(views) {
		panic("streaming: a read-out position per lane and view")
	}
	if k.kind == kindHist || k.kind == kindLog {
		return ReadPlan{views: views, pos: pos}
	}
	p := ReadPlan{at: make([][4]uint32, max(1, len(k.lanes)))}
	for i := range p.at {
		p.at[i] = [4]uint32{unread, unread, unread, unread}
		for j, v := range views {
			q := pos[i*len(views)+j]
			if q < 0 || int64(q) >= unread {
				panic("streaming: a read-out position out of range")
			}
			p.end = max(p.end, q+1)
			at := &p.at[i][memberOf(v.Func)]
			if *at == unread {
				*at = uint32(q)
			} else {
				p.copies = append(p.copies, [2]uint32{uint32(q), *at})
			}
		}
	}
	return p
}

// memberOf is the index of the value f reads among its family's
// read-out values, in the order Read lists them.
func memberOf(f Func) int {
	switch f {
	case FVar, FKurtosis, FRadius, FDMean, FD2DRadius:
		return 1
	case FStd, FCov, FDStd, FD2DCov:
		return 2
	case FPCC, FD2DPCC:
		return 3
	}
	return 0
}

// Read writes the features p plans from the state at st[:k.Words],
// which has seen n samples (its group's cells), into win, one family
// switch for every lane and view: each member read is stored at its
// position as it is computed, and the window's other values are left
// as they are.
//
//superfe:hotpath
func (k *Kernel) Read(win []float64, st []uint64, n uint64, p *ReadPlan) {
	switch k.kind {
	case kindHist:
		for j, v := range p.views {
			k.readHist(win[p.pos[j]:], st, n, v)
		}
		return
	case kindLog:
		for _, q := range p.pos {
			k.readLog(win[q:], st)
		}
		return
	}
	win = win[:p.end:p.end] // panics on a window too short for the plan
	switch k.kind {
	case kindSum, kindExtremum: // value
		if q := p.at[0][0]; uint(q) < uint(len(win)) {
			win[q] = float64(int64(st[0]))
		}
	case kindCount: // the sum of n ones
		if q := p.at[0][0]; uint(q) < uint(len(win)) {
			win[q] = float64(int64(n))
		}
	case kindCard: // estimate
		if q := p.at[0][0]; uint(q) < uint(len(win)) {
			win[q] = k.cardEstimate(st)
		}
	case kindWelford: // mean, var, std
		at := &p.at[0]
		v := welfordVar(st, n)
		if q := at[0]; uint(q) < uint(len(win)) {
			win[q] = f64(st[0])
		}
		if q := at[1]; uint(q) < uint(len(win)) {
			win[q] = v
		}
		if q := at[2]; uint(q) < uint(len(win)) {
			win[q] = math.Sqrt(v)
		}
	case kindMoments: // skewness, kurtosis
		at := &p.at[0]
		if q := at[0]; uint(q) < uint(len(win)) {
			win[q] = momentsView(st, n, false)
		}
		if q := at[1]; uint(q) < uint(len(win)) {
			win[q] = momentsView(st, n, true)
		}
	case kindBidir: // magnitude, radius, cov, pcc
		cov := 0.0
		if n != 0 {
			cov = f64(st[8]) / float64(n)
		}
		vf, vb := welfordVar(st[1:3], st[0]), welfordVar(st[4:6], st[3])
		read2D(win, &p.at[0], f64(st[1]), f64(st[4]), vf, vb, cov)
	case kindDamped1D:
		k.damped1DLanes(st, 0, nil, win, p.at)
	case kindDamped2D:
		k.damped2DLanes(st, 0, nil, win, p.at)
	}
	p.copy(win)
}

// copy stores each repeated member at its later positions.
func (p *ReadPlan) copy(win []float64) {
	for _, c := range p.copies {
		win[c[0]] = win[c[1]]
	}
}

// read2D stores the members of a two-stream state that at places, from
// its two means and variances and the covariance. The correlation keeps
// its clamp: the residual products behind cov are taken against means
// of different times, so Cauchy–Schwarz does not bound cov/(√va·√vb)
// by 1 (TestPCCClampIsLive).
func read2D(win []float64, at *[4]uint32, ma, mb, va, vb, cov float64) {
	if q := at[0]; uint(q) < uint(len(win)) {
		win[q] = math.Sqrt(ma*ma + mb*mb)
	}
	if q := at[1]; uint(q) < uint(len(win)) {
		win[q] = math.Sqrt(va*va + vb*vb)
	}
	if q := at[2]; uint(q) < uint(len(win)) {
		win[q] = cov
	}
	if q := at[3]; uint(q) < uint(len(win)) {
		p := 0.0
		if denom := math.Sqrt(va) * math.Sqrt(vb); denom != 0 {
			p = clampPCC(cov / denom)
		}
		win[q] = p
	}
}

// momentsView is the skewness or the kurtosis of moments over count
// samples.
func momentsView(st []uint64, count uint64, kurtosis bool) float64 {
	m2 := f64(st[1])
	if count < 2 || m2 == 0 {
		return 0
	}
	n := float64(count)
	if kurtosis {
		return n*f64(st[3])/(m2*m2) - 3
	}
	return math.Sqrt(n) * f64(st[2]) / math.Pow(m2, 1.5)
}

// cardEstimate is the sketch's estimate over the packed registers.
func (k *Kernel) cardEstimate(st []uint64) float64 {
	var sum float64
	zeros := 0
	for i := range 1 << k.bits {
		r := uint8(st[i>>3] >> (8 * (i & 7)))
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	return HLLEstimate(1<<k.bits, sum, zeros)
}

// readLog writes the log's features from out[0] on: f_array's samples
// zero-padded to its cap, or a naive log's feature, computed by its
// reducer's batch algorithm.
func (k *Kernel) readLog(out []float64, st []uint64) {
	l := k.logs.at(st[0])
	if k.naive != nil {
		n := *k.naive
		n.data, n.tss = l.xs, l.ts
		n.AppendFeatures(out[:0], View{}) // in place
		return
	}
	readArray(out[:k.maxLen], l.xs)
}

// readArray writes f_array's features into out: the samples, as many as
// fit, zero-padded to its length.
func readArray(out []float64, xs []int64) {
	xs = xs[:min(len(xs), len(out))]
	for i, x := range xs {
		out[i] = float64(x)
	}
	clear(out[len(xs):])
}

// bin reads histogram bin i.
func bin(st []uint64, i int) uint32 { return uint32(st[i>>1] >> (32 * uint(i&1))) }

// readHist writes histogram view v, over count samples, from out[0]
// on: the views of a histogram differ in what they compute, not only
// in what they pick.
func (k *Kernel) readHist(out []float64, st []uint64, count uint64, v View) {
	switch v.Func {
	case FPercent:
		out[0] = k.quantile(st, count, v.Quantile)
	case FPDF, FCDF:
		n := float64(count)
		if count == 0 {
			n = 1 // every bin is empty: emit zeros, not 0/0
		}
		var cum uint64
		for i := range out[:k.bins] {
			if v.Func == FPDF {
				cum = 0 // the density does not accumulate
			}
			cum += uint64(bin(st, i))
			out[i] = float64(cum) / n
		}
	default: // ft_hist
		for i := range out[:k.bins] {
			out[i] = float64(bin(st, i))
		}
	}
}

// quantile is the q-th quantile estimated from the histogram ("adding
// up those bins lower than that data", §6.1), with linear interpolation
// inside the bin that crosses the target count.
func (k *Kernel) quantile(st []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	target := q * float64(count)
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

package streaming

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKernelsMatchReducers lays every family of familySpecs out in one
// record — the states interleaved with guard words, the damped ones on
// one clock and one Decay, the f_array logs in one Logs, as a group
// record holds them — with f_array at caps 1, 16, 32 and 5000 and
// f_card at 2, 4, 6 and 16 bits, and beside them fused damped kernels,
// 1D and 2D, of 1, 2, 3 and 5 lanes. It feeds the record a hostile
// stream beside one streaming.New reducer per family and lane: sign
// flips for the 2D split, a first stretch of one direction so the other
// half's first sample comes many cells after, and later stretches that
// leave a 2D half's clock behind its group's, equal and backwards
// timestamps, 32-bit cell stamps that wrap and are unwrapped as the NIC
// unwraps them, idle gaps of minutes that underflow the λ = 5 factors to
// 0, samples beyond the histogram range and beyond ±2^31, and more
// samples than the largest cap. After each of the first 900 samples,
// and every 250th after, every view of every lane must read, bit for
// bit, what its reducer reads, planned alone and with several of the
// state's views at once — all of them, in reverse, and without one
// member — laid out lane-major and view-major, in a window whose other
// values Read leaves untouched; the guards must stand; and a kernel
// must model the bytes its reducer reports. Every damped state also
// has a twin per such plan, fed the same samples through the one pass
// (ObserveRead) into a window of NaN sentinels: after every sample the
// twin's words must be the state's and its window what Read of the
// state writes into the same sentinels, bit for bit. Then the naive
// log of every function is held to its NaiveReducer over the stream's
// first samples, fed cell by cell and as runs.
func TestKernelsMatchReducers(t *testing.T) {
	const guard = 0xA5A5A5A5A5A5A5A5
	type state struct {
		kern     Kernel
		off      int
		reducers []Reducer // one per lane
		views    []View
	}
	var states []state
	var decay Decay
	var logs Logs
	kinds := map[kind]bool{}
	words := 1
	add := func(k Kernel, rs []Reducer, views []View) {
		kinds[k.kind] = true
		states = append(states, state{kern: k, off: words, reducers: rs, views: views})
		words += k.Words + 1
	}
	seen := map[Family]int{}
	specs := append(familySpecs(), spec{FArray, Params{MaxLen: 1}}, spec{FArray, Params{MaxLen: 32}},
		spec{FCard, Params{HLLBits: 2}}, spec{FCard, Params{HLLBits: 16}})
	for _, s := range specs {
		fam := FamilyOf(s.f, s.p)
		if i, ok := seen[fam]; ok {
			states[i].views = append(states[i].views, ViewOf(s.f, s.p))
			continue
		}
		k, err := KernelFor(s.f, s.p, &decay, &logs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(s.f, s.p)
		if err != nil {
			t.Fatal(err)
		}
		seen[fam] = len(states)
		add(k, []Reducer{r}, []View{ViewOf(s.f, s.p)})
	}
	if len(kinds) != 10 {
		t.Fatalf("%d kernel kinds under test, want 10", len(kinds))
	}
	rates := []float64{3, 0.1, 5, 0.01, 1}
	for _, fam := range [][]Func{{FDWeight, FDMean, FDStd}, {FD2DMag, FD2DRadius, FD2DCov, FD2DPCC}} {
		var views []View
		for _, f := range append(fam, fam[1]) { // a view read twice
			views = append(views, View{Func: f})
		}
		for _, n := range []int{1, 2, 3, 5} {
			var ks []Kernel
			var rs []Reducer
			for _, l := range rates[:n] {
				k, err := KernelFor(fam[0], Params{Lambda: l}, &decay, &logs)
				if err != nil {
					t.Fatal(err)
				}
				r, err := New(fam[0], Params{Lambda: l})
				if err != nil {
					t.Fatal(err)
				}
				ks, rs = append(ks, k), append(rs, r)
			}
			k := Fuse(ks)
			if len(k.Lanes()) != n || k.Words != n*ks[0].Words {
				t.Fatalf("%s x%d: fused to %d lanes, %d words", fam[0], n, len(k.Lanes()), k.Words)
			}
			add(k, rs, views)
		}
	}
	var lanes []int
	for _, st := range states {
		for _, l := range st.kern.Lanes() {
			if !slices.Contains(lanes, l) {
				lanes = append(lanes, l)
			}
		}
	}
	rec := make([]uint64, words)
	guards := []int{0}
	for _, st := range states {
		guards = append(guards, st.off+st.kern.Words)
	}
	for _, g := range guards {
		rec[g] = guard
	}

	// read plans views from every lane of st, lane i's view j at pos(i,
	// j) of size values, into a window with NaN sentinels around them,
	// which Read must leave as they are; it returns the planned part.
	read := func(st *state, views []View, size int, pos func(i, j int) int) []float64 {
		const pad, sentinel = 3, 0x7ff8_dead_0000_beef
		var ps []int
		for i := range st.reducers {
			for j := range views {
				ps = append(ps, pad+pos(i, j))
			}
		}
		plan := st.kern.PlanRead(views, ps)
		win := make([]float64, pad+size+pad)
		for i := range win {
			win[i] = math.Float64frombits(sentinel)
		}
		st.kern.Read(win, rec[st.off:], &plan)
		for i, x := range win {
			if (i < pad || i >= pad+size) && math.Float64bits(x) != sentinel {
				t.Fatalf("%s x%d: Read wrote %v outside its plan, at %d of %d", views[0].Func, len(st.reducers), x, i-pad, size)
			}
		}
		return win[pad : pad+size]
	}
	// readAll plans views from every lane of st at once, lane-major
	// (lane i's views contiguous, as the NIC lays out a fused state's
	// collects) or view-major (view j of every lane, then view j+1),
	// and holds every lane's views to what its reducer reads.
	readAll := func(step int, st *state, views []View, laneMajor bool) {
		t.Helper()
		var want []float64
		at := map[[2]int]int{}
		put := func(l, j int) {
			at[[2]int{l, j}] = len(want)
			want = append(want, Features(st.reducers[l], views[j])...)
		}
		if laneMajor {
			for l := range st.reducers {
				for j := range views {
					put(l, j)
				}
			}
		} else {
			for j := range views {
				for l := range st.reducers {
					put(l, j)
				}
			}
		}
		got := read(st, views, len(want), func(i, j int) int { return at[[2]int{i, j}] })
		if !sameBits(got, want) {
			t.Fatalf("step %d %v x%d lane-major=%t: the plan reads %v, the reducers view by view %v", step, views, len(st.reducers), laneMajor, got, want)
		}
	}
	// plans are the view lists a state is read with: each view alone
	// (lane-major only), then the plans the NIC makes of several: every
	// view, the views in reverse (a member order not the family's), and
	// every subset that leaves one member unread. A state of one view
	// and one lane has no other plan.
	type plan struct {
		views     []View
		laneMajor bool
	}
	plans := func(st *state) []plan {
		var ps []plan
		for _, v := range st.views {
			ps = append(ps, plan{[]View{v}, true})
		}
		if len(st.views) == 1 && len(st.reducers) == 1 {
			return ps
		}
		rev := slices.Clone(st.views)
		slices.Reverse(rev)
		several := [][]View{st.views, rev}
		for m := range 4 {
			sub := slices.DeleteFunc(slices.Clone(st.views), func(v View) bool { return memberOf(v.Func) == m })
			if len(sub) > 0 && len(sub) < len(st.views) {
				several = append(several, sub)
			}
		}
		for _, views := range several {
			ps = append(ps, plan{views, true}, plan{views, false})
		}
		return ps
	}
	check := func(step int) {
		t.Helper()
		for _, g := range guards {
			if rec[g] != guard {
				t.Fatalf("step %d: guard word %d overwritten", step, g)
			}
		}
		for i := range states {
			st := &states[i]
			if got, want := st.kern.Bytes(rec[st.off:]), st.reducers[0].StateBytes(); got != want {
				t.Fatalf("step %d %s: the kernel models %d bytes, its reducer %d", step, st.views[0].Func, got, want)
			}
			for _, p := range plans(st) {
				readAll(step, st, p.views, p.laneMajor)
			}
		}
	}

	// twins are the damped states' one-pass copies, one per plan: a
	// damped view is one value wide, so lane i's view j lands at i·views+j
	// lane-major, j·lanes+i view-major, between pad sentinels each side.
	const pad, sentinel = 3, 0x7ff8_dead_0000_beef
	type twin struct {
		st        *state
		views     []View
		plan      ReadPlan
		rec       []uint64
		got, want []float64
	}
	var twins []twin
	laneCounts := map[int]bool{} // of the damped states
	for i := range states {
		st := &states[i]
		if st.kern.kind != kindDamped1D && st.kern.kind != kindDamped2D {
			continue
		}
		laneCounts[len(st.reducers)] = true
		for _, p := range plans(st) {
			nl, nv := len(st.reducers), len(p.views)
			var ps []int
			for l := range nl {
				for j := range nv {
					if p.laneMajor {
						ps = append(ps, pad+l*nv+j)
					} else {
						ps = append(ps, pad+j*nl+l)
					}
				}
			}
			twins = append(twins, twin{st: st, views: p.views, plan: st.kern.PlanRead(p.views, ps),
				rec: make([]uint64, st.kern.Words), got: make([]float64, pad+nl*nv+pad), want: make([]float64, pad+nl*nv+pad)})
		}
	}
	if !laneCounts[1] || !laneCounts[2] || !laneCounts[5] {
		t.Fatalf("damped states of %v lanes under the one pass, want 1, 2 and 5", laneCounts)
	}
	onePass := func(step int, x int64, s *Step) {
		t.Helper()
		for i := range twins {
			tw := &twins[i]
			for j := range tw.got {
				tw.got[j], tw.want[j] = math.Float64frombits(sentinel), math.Float64frombits(sentinel)
			}
			tw.st.kern.ObserveRead(tw.rec, x, s, tw.got, &tw.plan)
			st := rec[tw.st.off : tw.st.off+tw.st.kern.Words]
			tw.st.kern.Read(tw.want, st, &tw.plan)
			if !slices.Equal(tw.rec, st) {
				t.Fatalf("step %d %v x%d: the one pass leaves %v, Observe %v", step, tw.views, len(tw.st.reducers), tw.rec, st)
			}
			if !sameBits(tw.got, tw.want) {
				t.Fatalf("step %d %v x%d: the one pass writes %v, Observe then Read %v", step, tw.views, len(tw.st.reducers), tw.got, tw.want)
			}
		}
	}
	check(-1) // empty states
	rng := rand.New(rand.NewSource(1))
	var step Step
	clock := int64(0)
	tt := int64(1)<<32 - 3e9  // true time; a cell carries uint32(tt)
	neg, stretch := false, 60 // the backward half starts 60 cells late
	gaps := 0
	const samples = DefaultMaxArray + 200
	var xs, nows []int64 // the stream, for the naive logs
	for i := 0; i < samples; i++ {
		x := rng.Int63n(1500)
		if rng.Intn(25) == 0 {
			x = 1<<31 + rng.Int63n(1<<40) // past a 32-bit sample
		}
		switch {
		case stretch > 0:
			stretch--
		case rng.Intn(10) == 0: // one direction for a while
			stretch, neg = 5+rng.Intn(30), rng.Intn(2) == 0
		default:
			neg = rng.Intn(3) == 0
		}
		if neg {
			x = -x
		}
		idle := false
		switch rng.Intn(4) {
		case 0: // same instant: a duplicate
		case 1:
			tt -= rng.Int63n(1e6) // reordered, behind the clock
		default:
			tt += rng.Int63n(5e8)
			if rng.Intn(150) == 0 {
				// Idle for minutes: 2^(-5·Δt) underflows to 0 past ~215 s,
				// 2^(-3·Δt) past ~358 s.
				tt += 216e9 + rng.Int63n(300e9)
				idle, gaps = true, gaps+1
			}
		}
		// The clock unwraps the cell's 32-bit stamp by serial-number
		// difference, as the NIC does. A stamp cannot carry an idle gap
		// of minutes (the NIC's group clock moves less than 2.15 s a
		// cell), but a kernel's clock is 64-bit and takes it as it is,
		// as a direction half takes its own interval.
		ts := uint32(tt)
		now := int64(ts)
		if i > 0 {
			now = clock + int64(int32(ts-uint32(clock)))
		}
		if idle {
			now = tt
		}
		if now != tt {
			t.Fatalf("step %d: stamp %d unwraps to %d, want %d", i, ts, now, tt)
		}
		decay.Reset()
		clock = step.Begin(&decay, lanes, i == 0, clock, now)
		for j := range states {
			st := &states[j]
			st.kern.Observe(rec[st.off:], x, &step)
			for _, r := range st.reducers {
				r.Observe(x, now)
			}
		}
		onePass(i, x, &step)
		xs, nows = append(xs, x), append(nows, now)
		if i < 900 || i%250 == 0 || i == samples-1 {
			check(i)
		}
	}
	if tt>>32 < 3 {
		t.Fatalf("the stream ends at %d: its stamps wrapped fewer than three times", tt)
	}
	if gaps < 5 {
		t.Fatalf("%d idle gaps in the stream, want at least 5", gaps)
	}
	naiveLogsMatchReducers(t, xs[:400], nows[:400])
}

// naiveLogsMatchReducers holds the naive log of every function of
// familySpecs to its NaiveReducer over the stream xs at times nows: one
// log fed cell by cell, one fed the same samples as runs cut at random,
// each read, after every run and before the first, into a window whose
// other values Read leaves untouched, and each modelling the bytes its
// reducer reports.
func naiveLogsMatchReducers(t *testing.T, xs, nows []int64) {
	t.Helper()
	const pad, sentinel = 3, 0x7ff8_dead_0000_beef
	rng := rand.New(rand.NewSource(2))
	for _, s := range familySpecs() {
		var cellLogs, runLogs Logs
		byCell, err := NaiveKernel(s.f, s.p, &cellLogs)
		if err != nil {
			t.Fatal(err)
		}
		byRun, err := NaiveKernel(s.f, s.p, &runLogs)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewNaive(s.f, s.p)
		cell, run := make([]uint64, byCell.Words), make([]uint64, byRun.Words)
		view := ViewOf(s.f, s.p)
		check := func(n int) {
			t.Helper()
			want := Features(ref, view)
			for _, c := range []struct {
				how string
				k   *Kernel
				rec []uint64
			}{{"cell by cell", &byCell, cell}, {"as runs", &byRun, run}} {
				plan := c.k.PlanRead([]View{view}, []int{pad})
				win := make([]float64, pad+len(want)+pad)
				for i := range win {
					win[i] = math.Float64frombits(sentinel)
				}
				c.k.Read(win, c.rec, &plan)
				for i, x := range win {
					if (i < pad || i >= pad+len(want)) && math.Float64bits(x) != sentinel {
						t.Fatalf("naive %s %+v %s: Read wrote %v outside its plan", s.f, s.p, c.how, x)
					}
				}
				if got := win[pad : pad+len(want)]; !sameBits(got, want) {
					t.Fatalf("naive %s %+v %s after %d samples: the log reads %v, its reducer %v", s.f, s.p, c.how, n, got, want)
				}
				if got, want := c.k.Bytes(c.rec), ref.StateBytes(); got != want {
					t.Fatalf("naive %s %s: the log models %d bytes, its reducer %d", s.f, c.how, got, want)
				}
			}
		}
		check(0)
		var step Step
		for i := 0; i < len(xs); {
			n := min(len(xs)-i, 1+rng.Intn(40))
			byRun.ObserveRun(run, xs[i:i+n], nows[i:i+n], &step)
			for j := i; j < i+n; j++ {
				step.Now = nows[j]
				byCell.Observe(cell, xs[j], &step)
				ref.Observe(xs[j], nows[j])
			}
			i += n
			check(i)
		}
	}
}

// TestObserveRunSplitsAnywhere: for every family that does not read
// the clock, a stream fed as runs cut at random boundaries leaves the
// state word for word where Observe, sample by sample, leaves it — the
// property the NIC's run-at-a-time op table rests on. Only the
// stream's first sample is its group's first.
func TestObserveRunSplitsAnywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]int64, 700)
	for i := range xs {
		xs[i] = rng.Int63n(3000) - 600 // negatives, and past the histogram range
	}
	tested := map[kind]bool{}
	for _, s := range familySpecs() {
		// Each its own Logs, so the two f_array states take the same log
		// index and the words compare.
		k, err := KernelFor(s.f, s.p, new(Decay), new(Logs))
		if err != nil {
			t.Fatal(err)
		}
		kr, err := KernelFor(s.f, s.p, new(Decay), new(Logs))
		if err != nil {
			t.Fatal(err)
		}
		if k.Lanes() != nil {
			continue
		}
		tested[k.kind] = true
		one, runs := make([]uint64, k.Words), make([]uint64, k.Words)
		var step Step
		for i, x := range xs {
			step.First = i == 0
			k.Observe(one, x, &step)
		}
		for i := 0; i < len(xs); {
			n := min(len(xs)-i, rng.Intn(40))
			step.First = i == 0
			kr.ObserveRun(runs, xs[i:i+n], nil, &step)
			i += n
		}
		read := func(k *Kernel, st []uint64) []float64 {
			plan := k.PlanRead([]View{ViewOf(s.f, s.p)}, []int{0})
			win := make([]float64, FeatureWidth(s.f, s.p))
			k.Read(win, st, &plan)
			return win
		}
		if !slices.Equal(one, runs) || !sameBits(read(&k, one), read(&kr, runs)) {
			t.Errorf("%s: runs leave %v, Observe %v", s.f, runs, one)
		}
	}
	if len(tested) != 8 {
		t.Fatalf("%d clock-free families under test, want 8", len(tested))
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDecayComputesEachFactorOnce: within a cell an interval costs one
// DecayFactor per lane, computed for every lane when a row claims the
// interval, however many groups and direction halves ask for it later;
// and Reset forgets the cell.
func TestDecayComputesEachFactorOnce(t *testing.T) {
	var d Decay
	fast, slow := d.Lane(5), d.Lane(0.1)
	if d.Lane(5) != fast || fast == slow {
		t.Fatalf("lanes %d and %d", fast, slow)
	}
	var s Step
	d.Reset()
	s.Begin(&d, []int{fast}, false, 0, 3e8)
	if got, want := s.factors[fast], DecayFactor(5, 3e8); got != want || d.n != 1 {
		t.Errorf("factor %v, want %v; %d intervals", got, want, d.n)
	}
	// A direction half on slow, its clock as far behind as the group's,
	// reads the row a group that decays on fast alone claimed.
	if got := d.row(3e8)[slow]; got != DecayFactor(0.1, 3e8) || d.n != 1 {
		t.Errorf("the other lane of a claimed row: factor %v, %d intervals", got, d.n)
	}
	s.factors[fast], s.factors[slow] = -1, -2 // a recomputation would overwrite the marks
	s.Begin(&d, []int{fast, slow}, false, 7e8, 1e9)
	if d.n != 1 || s.factors[fast] != -1 || s.factors[slow] != -2 {
		t.Errorf("a second group at the same interval: %d intervals, factors %v", d.n, s.factors)
	}
	if got := d.row(4e8)[slow]; got != DecayFactor(0.1, 4e8) || d.n != 2 {
		t.Errorf("a half's own interval: factor %v, %d intervals", got, d.n)
	}
	d.Reset()
	s.Begin(&d, []int{fast}, false, 0, 3e8)
	if s.factors[fast] != DecayFactor(5, 3e8) || s.factors[slow] != DecayFactor(0.1, 3e8) {
		t.Error("a factor outlived its cell")
	}
}

// TestExp2MatchesMathExp2: the decay's exp2 is math.Exp2 bit for bit —
// across its scaled range, at every catalog rate over intervals up to
// 2^31 ns, at the half-integers where the reduction's k rounds, at the
// edges of the range and at the special values — and DecayFactor is
// math.Exp2 of -λ·Δt. So is every lane of a Decay row, which computes
// its lanes in one pass: rows at the catalog rates, and rows that mix
// lanes in range with lanes whose -λ·Δt falls below -1022 (λ = 5 beside
// λ = 0.01 past ~204.4 s) and underflows.
func TestExp2MatchesMathExp2(t *testing.T) {
	bad := 0
	// exp2 is the row's one-lane case at an exponent: λ = -x over one
	// second, -(-x)·1 = x exactly.
	exp2 := func(x float64) float64 {
		var f [1]float64
		exp2Row(f[:], []float64{-x}, 1e9)
		return f[0]
	}
	same := func(x float64) {
		if got, want := exp2(x), math.Exp2(x); math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
			bad++
			t.Errorf("exp2(%v) = %v (%#x), math.Exp2 %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<19; i++ {
		same(-1022 * rng.Float64())
		same(-math.Ldexp(rng.Float64(), -rng.Intn(64))) // near 0, where decays mostly are
	}
	for k := 0; k <= 1022; k++ {
		h := -float64(k) - 0.5
		same(h)
		same(math.Nextafter(h, 0))
		same(math.Nextafter(h, math.Inf(-1)))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1022, -1022.5, -1074, -1075,
		math.Nextafter(-1022, 0), math.Nextafter(-1022, -2000), math.NaN(), math.Inf(-1)} {
		same(x)
	}
	catalog := []float64{5, 3, 1, 0.1, 0.01}
	for _, lambda := range catalog {
		check := func(dt int64) {
			want := math.Exp2(-lambda * (float64(dt) / 1e9))
			if got := DecayFactor(lambda, dt); math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
				bad++
				t.Errorf("DecayFactor(%v, %d) = %v, math.Exp2 %v", lambda, dt, got, want)
			}
		}
		for dt := int64(1); dt <= 1<<31; dt += dt/64 + 1 {
			check(dt)
		}
		for i := 0; i < 1<<14; i++ {
			check(1 + rng.Int63n(1<<31))
		}
	}
	rows := func(lambdas []float64, dts func() int64, n int) {
		var d Decay
		for _, l := range lambdas {
			d.Lane(l)
		}
		for i := 0; i < n; i++ {
			dt := dts()
			d.Reset()
			for l, got := range d.row(dt) {
				want := math.Exp2(-d.lambdas[l] * (float64(dt) / 1e9))
				if math.Float64bits(got) != math.Float64bits(want) && bad < 10 {
					bad++
					t.Errorf("row %v at %d ns, lane %d: %v, math.Exp2 %v", d.lambdas, dt, l, got, want)
				}
			}
		}
	}
	rows(catalog, func() int64 { return 1 + rng.Int63n(1<<31) }, 1<<14)
	rows(catalog, func() int64 { return 1 + rng.Int63n(1e12) }, 1<<14)
	// -5·Δt passes -1022 at Δt = 204.4 s and the factor underflows to 0
	// past ~215 s, while λ = 0.01 stays in range.
	past := func() int64 { return 200e9 + rng.Int63n(30e9) }
	for _, lambdas := range [][]float64{{5, 0.01}, {0.01, 5}, {5, 3, 0.01, 1, 0.1}, {0.1, 5, 0.01, 5.5}} {
		rows(lambdas, past, 1<<12)
	}
}

// TestConstructorRejectsWhatNewRejects: validation happens once, when
// the kernel is resolved.
func TestConstructorRejectsWhatNewRejects(t *testing.T) {
	for _, s := range []spec{
		{FHist, Params{}}, {FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 1}},
		{FCard, Params{HLLBits: 40}}, {FDMean, Params{}}, {numFuncsExt, Params{}},
		{FPercent, Params{BinWidth: 10, Bins: 4, Quantile: math.NaN()}},
		{FDMean, Params{Lambda: math.NaN()}}, {FD2DCov, Params{Lambda: math.Inf(1)}},
		{FArray, Params{MaxLen: -5}}, {FCard, Params{HLLBits: 1}}, {FCard, Params{HLLBits: 17}},
	} {
		if _, err := New(s.f, s.p); err == nil {
			t.Fatalf("%s %+v: fixture is valid", s.f, s.p)
		}
		if _, err := KernelFor(s.f, s.p, new(Decay), new(Logs)); err == nil {
			t.Errorf("KernelFor(%s, %+v) accepted what New rejects", s.f, s.p)
		}
		if _, err := NaiveKernel(s.f, s.p, new(Logs)); err == nil {
			t.Errorf("NaiveKernel(%s, %+v) accepted what New rejects", s.f, s.p)
		}
	}
}

// TestPCCClampIsLive: the correlation's clamp to [-1, 1] is not dead
// code. cov sums products of residuals taken against each stream's mean
// at the time of its own sample, so the two factors of a product belong
// to different times and Cauchy–Schwarz does not bound cov/(√va·√vb).
// A short seeded stream drives the unclamped ratio past ±1 for f_pcc
// (bidirectional Welford) and fd_pcc (damped 2D), and there every
// reader — the kernel and the reducer — must return the clamped value.
func TestPCCClampIsLive(t *testing.T) {
	for _, f := range []Func{FPCC, FD2DPCC} {
		var decay Decay
		p := Params{Lambda: 0.1}
		k, err := KernelFor(f, p, &decay, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(f, p)
		if err != nil {
			t.Fatal(err)
		}
		// unclamped is the reducer's correlation before its clamp.
		unclamped := func() float64 {
			var cov, denom float64
			switch r := r.(type) {
			case *Bidirectional:
				cov, denom = r.Cov(), math.Sqrt(r.fwd.Var())*math.Sqrt(r.bwd.Var())
			case *Damped2DReducer:
				cov, denom = r.d.Cov(), r.d.A.Std()*r.d.B.Std()
			default:
				t.Fatalf("%s: reducer %T", f, r)
			}
			if denom == 0 {
				return 0
			}
			return cov / denom
		}
		plan := k.PlanRead([]View{{Func: f}}, []int{0})
		rec, win := make([]uint64, k.Words), make([]float64, 1)
		rng := rand.New(rand.NewSource(7))
		var step Step
		var clock int64
		past, level := 0, int64(600)
		for i := 0; i < 2000; i++ {
			// A level that jumps now and then, a little jitter on it: a
			// stream's first residual, and each jump's, is far larger
			// than the spread its variance settles to.
			if rng.Intn(200) == 0 {
				level = 40 + rng.Int63n(1400)
			}
			x := level + rng.Int63n(20)
			if rng.Intn(2) == 0 {
				x = -x
			}
			now := clock + rng.Int63n(1e8)
			decay.Reset()
			clock = step.Begin(&decay, k.Lanes(), i == 0, clock, now)
			k.Observe(rec, x, &step)
			r.Observe(x, now)
			u := unclamped()
			if !(math.Abs(u) > 1) {
				continue
			}
			past++
			k.Read(win, rec, &plan)
			want, ref := math.Copysign(1, u), Features(r, View{Func: f})[0]
			if win[0] != want || ref != want {
				t.Fatalf("%s step %d: unclamped %v; the kernel reads %v, the reducer %v, want %v", f, i, u, win[0], ref, want)
			}
		}
		if past == 0 {
			t.Errorf("%s: the stream never took the correlation past ±1", f)
		}
		t.Logf("%s: %d of 2000 reads past ±1", f, past)
	}
}

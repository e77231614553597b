package baseline

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"superfe/internal/streaming"
)

// TestKernelsMatchReducers lays every family of familySpecs out in one
// record — the states interleaved with guard words, the damped ones on
// one clock and one Decay, the f_array logs in one Logs, as a group
// record holds them — with f_array at caps 1, 16, 32 and 5000 and
// f_card at 2, 4, 6 and 16 bits, an f_sum over an f_one map (which
// keeps no word and reads the count), and beside them fused damped
// kernels, 1D and 2D, of 1, 2, 3 and 5 lanes. Every state reads the
// count it is passed, the samples fed so far. It feeds the record a hostile
// stream beside one private reducer per family and lane: sign
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
// values Read leaves untouched; and the guards must stand. Every damped state also
// has a twin per such plan, fed the same samples through the one pass
// (ObserveRead) into a window of NaN sentinels: after every sample the
// twin's words must be the state's and its window what Read of the
// state writes into the same sentinels, bit for bit. Then the naive
// log of every function is held to its NaiveReducer over the stream's
// first samples, fed cell by cell and as runs.
func TestKernelsMatchReducers(t *testing.T) {
	const guard = 0xA5A5A5A5A5A5A5A5
	type state struct {
		kern     streaming.Kernel
		off      int
		reducers []reducer // one per lane
		views    []streaming.View
		ones     bool // fed 1 for every sample: an f_sum over an f_one map
	}
	var states []state
	var decay streaming.Decay
	var logs streaming.Logs
	// The kernel kinds under test, by family: f_min's kind is f_max's,
	// and every other family has its own (streaming.TestKernelKinds).
	kinds := map[streaming.Func]bool{}
	words := 1
	add := func(k streaming.Kernel, rs []reducer, views []streaming.View) {
		states = append(states, state{kern: k, off: words, reducers: rs, views: views})
		words += k.Words + 1
	}
	seen := map[streaming.Family]int{}
	specs := append(familySpecs(), spec{streaming.FArray, streaming.Params{MaxLen: 1}}, spec{streaming.FArray, streaming.Params{MaxLen: 32}},
		spec{streaming.FCard, streaming.Params{HLLBits: 2}}, spec{streaming.FCard, streaming.Params{HLLBits: 16}})
	for _, s := range specs {
		fam := streaming.FamilyOf(s.f, s.p)
		if i, ok := seen[fam]; ok {
			states[i].views = append(states[i].views, streaming.ViewOf(s.f, s.p))
			continue
		}
		k, err := streaming.KernelFor(s.f, s.p, &decay, &logs)
		if err != nil {
			t.Fatal(err)
		}
		kind := fam.Func
		if kind == streaming.FMin {
			kind = streaming.FMax
		}
		kinds[kind] = true
		seen[fam] = len(states)
		add(k, []reducer{newReducer(s.f, s.p)}, []streaming.View{streaming.ViewOf(s.f, s.p)})
	}
	if len(kinds) != 10 {
		t.Fatalf("%d kernel kinds under test, want 10", len(kinds))
	}
	sum, err := streaming.KernelFor(streaming.FSum, streaming.Params{}, &decay, &logs)
	if err != nil {
		t.Fatal(err)
	}
	if ones := sum.OverOnes(); ones.Words != 0 || ones.Bytes(nil) != sum.Bytes(nil) {
		t.Fatalf("an f_sum over ones keeps %d words and models %d bytes, want 0 and %d", ones.Words, ones.Bytes(nil), sum.Bytes(nil))
	}
	add(sum.OverOnes(), []reducer{newReducer(streaming.FSum, streaming.Params{})}, []streaming.View{{Func: streaming.FSum}})
	states[len(states)-1].ones = true
	rates := []float64{3, 0.1, 5, 0.01, 1}
	for _, fam := range [][]streaming.Func{{streaming.FDWeight, streaming.FDMean, streaming.FDStd}, {streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC}} {
		var views []streaming.View
		for _, f := range append(fam, fam[1]) { // a view read twice
			views = append(views, streaming.View{Func: f})
		}
		for _, n := range []int{1, 2, 3, 5} {
			var ks []streaming.Kernel
			var rs []reducer
			for _, l := range rates[:n] {
				k, err := streaming.KernelFor(fam[0], streaming.Params{Lambda: l}, &decay, &logs)
				if err != nil {
					t.Fatal(err)
				}
				ks, rs = append(ks, k), append(rs, newReducer(fam[0], streaming.Params{Lambda: l}))
			}
			k := streaming.Fuse(ks)
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
	var fed uint64 // samples fed: the count every state reads

	// read plans views from every lane of st, lane i's view j at pos(i,
	// j) of size values, into a window with NaN sentinels around them,
	// which Read must leave as they are; it returns the planned part.
	read := func(st *state, views []streaming.View, size int, pos func(i, j int) int) []float64 {
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
		st.kern.Read(win, rec[st.off:], fed, &plan)
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
	readAll := func(step int, st *state, views []streaming.View, laneMajor bool) {
		t.Helper()
		var want []float64
		at := map[[2]int]int{}
		put := func(l, j int) {
			at[[2]int{l, j}] = len(want)
			want = append(want, features(st.reducers[l], views[j])...)
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
	// every subset that leaves one function unread (each function is one
	// member of its family's read-out; a histogram's differ in shape).
	// A state of one view and one lane has no other plan.
	type plan struct {
		views     []streaming.View
		laneMajor bool
	}
	plans := func(st *state) []plan {
		var ps []plan
		for _, v := range st.views {
			ps = append(ps, plan{[]streaming.View{v}, true})
		}
		if len(st.views) == 1 && len(st.reducers) == 1 {
			return ps
		}
		rev := slices.Clone(st.views)
		slices.Reverse(rev)
		several := [][]streaming.View{st.views, rev}
		var fs []streaming.Func
		for _, v := range st.views {
			if !slices.Contains(fs, v.Func) {
				fs = append(fs, v.Func)
			}
		}
		for _, f := range fs {
			sub := slices.DeleteFunc(slices.Clone(st.views), func(v streaming.View) bool { return v.Func == f })
			if len(sub) > 0 {
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
		views     []streaming.View
		plan      streaming.ReadPlan
		rec       []uint64
		got, want []float64
	}
	var twins []twin
	laneCounts := map[int]bool{} // of the damped states
	for i := range states {
		st := &states[i]
		if st.kern.Lanes() == nil { // not a damped state
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
	onePass := func(step int, x int64, s *streaming.Step) {
		t.Helper()
		for i := range twins {
			tw := &twins[i]
			for j := range tw.got {
				tw.got[j], tw.want[j] = math.Float64frombits(sentinel), math.Float64frombits(sentinel)
			}
			tw.st.kern.ObserveRead(tw.rec, x, s, tw.got, &tw.plan)
			st := rec[tw.st.off : tw.st.off+tw.st.kern.Words]
			tw.st.kern.Read(tw.want, st, s.N+1, &tw.plan)
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
	var step streaming.Step
	clock := int64(0)
	tt := int64(1)<<32 - 3e9  // true time; a cell carries uint32(tt)
	neg, stretch := false, 60 // the backward half starts 60 cells late
	gaps := 0
	const samples = streaming.DefaultMaxArray + 200
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
		clock = step.Begin(&decay, lanes, uint64(i), clock, now)
		for j := range states {
			st := &states[j]
			xi := x
			if st.ones {
				xi = 1
			}
			st.kern.Observe(rec[st.off:], xi, &step)
			for _, r := range st.reducers {
				r.Observe(xi, now)
			}
		}
		onePass(i, x, &step)
		fed++
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
	naiveLogsMatchOneRun(t, xs[:400], nows[:400])
}

// naiveLogsMatchOneRun holds the naive log of every function of
// familySpecs over the stream xs at times nows to a fresh log fed the
// stream so far as one run: one log fed cell by cell, one fed the same
// samples as runs cut at random, each read, after every run and before
// the first, into a window whose other values Read leaves untouched,
// and each modelling 16 bytes a sample it holds (the sample and its
// time).
func naiveLogsMatchOneRun(t *testing.T, xs, nows []int64) {
	t.Helper()
	const pad, sentinel = 3, 0x7ff8_dead_0000_beef
	rng := rand.New(rand.NewSource(2))
	for _, s := range familySpecs() {
		var cellLogs, runLogs streaming.Logs
		byCell, err := streaming.NaiveKernel(s.f, s.p, &cellLogs)
		if err != nil {
			t.Fatal(err)
		}
		byRun, err := streaming.NaiveKernel(s.f, s.p, &runLogs)
		if err != nil {
			t.Fatal(err)
		}
		cell, run := make([]uint64, byCell.Words), make([]uint64, byRun.Words)
		view := streaming.ViewOf(s.f, s.p)
		// whole reads a fresh log fed xs[:n] in one run.
		whole := func(n int) []float64 {
			var logs streaming.Logs
			k, err := streaming.NaiveKernel(s.f, s.p, &logs)
			if err != nil {
				t.Fatal(err)
			}
			rec := make([]uint64, k.Words)
			if n > 0 {
				k.ObserveRun(rec, xs[:n], nows[:n], &streaming.Step{})
			}
			plan := k.PlanRead([]streaming.View{view}, []int{0})
			out := make([]float64, streaming.FeatureWidth(s.f, s.p))
			k.Read(out, rec, uint64(n), &plan)
			return out
		}
		check := func(n int) {
			t.Helper()
			want := whole(n)
			for _, c := range []struct {
				how string
				k   *streaming.Kernel
				rec []uint64
			}{{"cell by cell", &byCell, cell}, {"as runs", &byRun, run}} {
				plan := c.k.PlanRead([]streaming.View{view}, []int{pad})
				win := make([]float64, pad+len(want)+pad)
				for i := range win {
					win[i] = math.Float64frombits(sentinel)
				}
				c.k.Read(win, c.rec, uint64(n), &plan)
				for i, x := range win {
					if (i < pad || i >= pad+len(want)) && math.Float64bits(x) != sentinel {
						t.Fatalf("naive %s %+v %s: Read wrote %v outside its plan", s.f, s.p, c.how, x)
					}
				}
				if got := win[pad : pad+len(want)]; !sameBits(got, want) {
					t.Fatalf("naive %s %+v %s after %d samples: the log reads %v, one run of them %v", s.f, s.p, c.how, n, got, want)
				}
				if got := c.k.Bytes(c.rec); got != 16*n {
					t.Fatalf("naive %s %s: the log models %d bytes after %d samples, want %d", s.f, c.how, got, n, 16*n)
				}
			}
		}
		check(0)
		var step streaming.Step
		for i := 0; i < len(xs); {
			n := min(len(xs)-i, 1+rng.Intn(40))
			step.N = uint64(i)
			byRun.ObserveRun(run, xs[i:i+n], nows[i:i+n], &step)
			for j := i; j < i+n; j++ {
				step.N, step.Now = uint64(j), nows[j]
				byCell.Observe(cell, xs[j], &step)
			}
			i += n
			check(i)
		}
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

// TestPCCClampIsLive: the correlation's clamp to [-1, 1] is not dead
// code. cov sums products of residuals taken against each stream's mean
// at the time of its own sample, so the two factors of a product belong
// to different times and Cauchy–Schwarz does not bound cov/(√va·√vb).
// A short seeded stream drives the unclamped ratio past ±1 for f_pcc
// (bidirectional Welford) and fd_pcc (damped 2D), and there every
// reader — the kernel and the reducer — must return the clamped value.
func TestPCCClampIsLive(t *testing.T) {
	for _, f := range []streaming.Func{streaming.FPCC, streaming.FD2DPCC} {
		var decay streaming.Decay
		p := streaming.Params{Lambda: 0.1}
		k, err := streaming.KernelFor(f, p, &decay, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := newReducer(f, p)
		// unclamped is the reducer's correlation before its clamp.
		unclamped := func() float64 {
			var cov, denom float64
			switch r := r.(type) {
			case *bidirectional:
				cov, denom = r.cov(), math.Sqrt(r.fwd.variance())*math.Sqrt(r.bwd.variance())
			case *damped2D:
				cov, denom = r.d.Cov(), r.d.A.Std()*r.d.B.Std()
			default:
				t.Fatalf("%s: reducer %T", f, r)
			}
			if denom == 0 {
				return 0
			}
			return cov / denom
		}
		plan := k.PlanRead([]streaming.View{{Func: f}}, []int{0})
		rec, win := make([]uint64, k.Words), make([]float64, 1)
		rng := rand.New(rand.NewSource(7))
		var step streaming.Step
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
			clock = step.Begin(&decay, k.Lanes(), uint64(i), clock, now)
			k.Observe(rec, x, &step)
			r.Observe(x, now)
			u := unclamped()
			if !(math.Abs(u) > 1) {
				continue
			}
			past++
			k.Read(win, rec, uint64(i+1), &plan)
			want, ref := math.Copysign(1, u), features(r, streaming.View{Func: f})[0]
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

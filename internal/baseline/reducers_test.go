package baseline

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"superfe/internal/streaming"
)

const tol = 1e-9

func approx(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d < eps
	}
	return d/scale < eps
}

// features returns the features v selects from r in a fresh slice.
func features(r reducer, v streaming.View) []float64 { return r.AppendFeatures(nil, v) }

// feat reads the single feature f selects from r.
func feat(r reducer, f streaming.Func) float64 { return features(r, streaming.View{Func: f})[0] }

func feed(r reducer, xs []int64) {
	for _, x := range xs {
		r.Observe(x, 0)
	}
}

// naive is f's store-everything feature over xs: a naive log
// (streaming.NaiveKernel) fed at time 0 and read as the NIC does.
func naive(t *testing.T, f streaming.Func, xs []int64) float64 {
	t.Helper()
	var logs streaming.Logs
	k, err := streaming.NaiveKernel(f, streaming.Params{}, &logs)
	if err != nil {
		t.Fatal(err)
	}
	st := make([]uint64, k.Words)
	var s streaming.Step
	for i, x := range xs {
		s.N = uint64(i)
		k.Observe(st, x, &s)
	}
	plan := k.PlanRead([]streaming.View{{Func: f}}, []int{0})
	win := make([]float64, streaming.FeatureWidth(f, streaming.Params{}))
	k.Read(win, st, uint64(len(xs)), &plan)
	return win[0]
}

func TestSum(t *testing.T) {
	s := &sum{}
	feed(s, []int64{1, 2, 3, -4})
	if got := feat(s, streaming.FSum); got != 2 {
		t.Errorf("sum = %g, want 2", got)
	}
	if s.n != 4 {
		t.Errorf("count = %d", s.n)
	}
}

func TestExtremum(t *testing.T) {
	mx := newReducer(streaming.FMax, streaming.Params{})
	mn := newReducer(streaming.FMin, streaming.Params{})
	xs := []int64{5, -3, 17, 0}
	feed(mx, xs)
	feed(mn, xs)
	if feat(mx, streaming.FMax) != 17 {
		t.Errorf("max = %g", feat(mx, streaming.FMax))
	}
	if feat(mn, streaming.FMin) != -3 {
		t.Errorf("min = %g", feat(mn, streaming.FMin))
	}
	// Empty reducers emit 0.
	e := &extremum{max: true}
	if feat(e, streaming.FMax) != 0 {
		t.Error("empty extremum should be 0")
	}
}

func TestWelfordAgainstNaive(t *testing.T) {
	f := func(xs []int64) bool {
		if len(xs) == 0 {
			return true
		}
		// Bound magnitudes to keep the naive two-pass numerically
		// comparable.
		for i := range xs {
			xs[i] %= 1 << 20
		}
		w := &welford{}
		feed(w, xs)
		return approx(feat(w, streaming.FVar), naive(t, streaming.FVar, xs), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordKnown(t *testing.T) {
	w := &welford{}
	feed(w, []int64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(w.mean, 5, tol) {
		t.Errorf("mean = %g, want 5", w.mean)
	}
	if !approx(w.variance(), 4, tol) {
		t.Errorf("var = %g, want 4", w.variance())
	}
	if std := feat(w, streaming.FStd); !approx(std, 2, tol) {
		t.Errorf("std = %g, want 2", std)
	}
}

func TestMomentsAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := make([]int64, 500)
	for i := range xs {
		// Skewed distribution: squared normal.
		v := r.NormFloat64()
		xs[i] = int64(v * v * 1000)
	}
	for _, emit := range []streaming.Func{streaming.FSkew, streaming.FKurtosis} {
		m := &moments{}
		feed(m, xs)
		if n := naive(t, emit, xs); !approx(feat(m, emit), n, 1e-6) {
			t.Errorf("%s: streaming %g vs naive %g", emit, feat(m, emit), n)
		}
	}
}

func TestMomentsDegenerate(t *testing.T) {
	m := &moments{}
	m.Observe(5, 0)
	if feat(m, streaming.FSkew) != 0 {
		t.Error("single-sample skew must be 0")
	}
	m2 := &moments{}
	feed(m2, []int64{3, 3, 3, 3})
	if feat(m2, streaming.FKurtosis) != 0 {
		t.Error("constant-stream kurtosis must be 0 (zero variance guard)")
	}
}

func TestHyperLogLogAccuracy(t *testing.T) {
	h := newHyperLogLog(8) // 256 buckets → ~6.5% standard error
	r := rand.New(rand.NewSource(3))
	seen := map[int64]struct{}{}
	for len(seen) < 10000 {
		x := int64(r.Uint64() >> 8)
		seen[x] = struct{}{}
		h.Observe(x, 0)
	}
	// Duplicates must not change the estimate.
	for x := range seen {
		h.Observe(x, 0)
		break
	}
	est := h.estimate()
	if est < 8000 || est > 12000 {
		t.Errorf("HLL estimate %g for 10000 distinct (>20%% off)", est)
	}
}

func TestHyperLogLogSmallRange(t *testing.T) {
	h := newHyperLogLog(6)
	for i := int64(0); i < 10; i++ {
		h.Observe(i, 0)
	}
	est := h.estimate()
	if est < 5 || est > 20 {
		t.Errorf("linear-counting estimate %g for 10 distinct", est)
	}
}

func TestHyperLogLogHashReuse(t *testing.T) {
	// Observe must set exactly the registers the sample's 32-bit hash
	// selects: the top 6 bits pick the bucket, the leading-zero run of
	// the rest (+1) is the rank.
	h := newHyperLogLog(6)
	want := make([]uint8, len(h.buckets))
	for i := int64(0); i < 1000; i++ {
		h.Observe(i, 0)
		v := streaming.Hash32(i)
		if rho := uint8(bits.LeadingZeros32(v<<6|1)) + 1; rho > want[v>>26] {
			want[v>>26] = rho
		}
	}
	if !slices.Equal(h.buckets, want) {
		t.Error("Observe diverges from the hash's register update")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := &histogram{width: 10, bins: make([]uint32, 4)}
	for _, x := range []int64{0, 9, 10, 25, 39, 40, 1000, -5} {
		h.Observe(x, 0)
	}
	want := []float64{3, 1, 1, 3} // -5,0,9 | 10 | 25 | 39,40(clamp),1000(clamp)
	got := features(h, streaming.View{Func: streaming.FHist})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hist = %v, want %v", got, want)
		}
	}
}

func TestHistogramPDFandCDF(t *testing.T) {
	h := &histogram{width: 10, bins: make([]uint32, 4)}
	for _, v := range []streaming.Func{streaming.FPDF, streaming.FCDF} {
		for _, x := range features(h, streaming.View{Func: v}) {
			if x != 0 {
				t.Errorf("empty %s = %v, want zeros", v, features(h, streaming.View{Func: v}))
			}
		}
	}
	feed(h, []int64{5, 15, 15, 35})
	p := features(h, streaming.View{Func: streaming.FPDF})
	if !approx(p[0], 0.25, tol) || !approx(p[1], 0.5, tol) || !approx(p[3], 0.25, tol) {
		t.Errorf("pdf = %v", p)
	}
	c := features(h, streaming.View{Func: streaming.FCDF})
	if !approx(c[3], 1.0, tol) {
		t.Errorf("cdf must end at 1: %v", c)
	}
	for i := 1; i < len(c); i++ {
		if c[i] < c[i-1] {
			t.Errorf("cdf not monotone: %v", c)
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := &histogram{width: 100, bins: make([]uint32, 16)}
	// Uniform 0..999: median ≈ 500.
	for i := int64(0); i < 1000; i++ {
		h.Observe(i, 0)
	}
	med := h.quantile(0.5)
	if med < 450 || med > 550 {
		t.Errorf("median = %g, want ≈500", med)
	}
	// Empty histogram.
	e := &histogram{width: 10, bins: make([]uint32, 4)}
	if e.quantile(0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
}

func TestHistogramQuantileVsExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	h := &histogram{width: 16, bins: make([]uint32, 128)}
	var sorted []int64
	for i := 0; i < 5000; i++ {
		x := int64(r.ExpFloat64() * 300)
		h.Observe(x, 0)
		sorted = append(sorted, x)
	}
	slices.Sort(sorted)
	exact := float64(sorted[int(0.9*float64(len(sorted)-1))])
	got := h.quantile(0.9)
	if math.Abs(got-exact)/exact > 0.1 {
		t.Errorf("p90: hist %g vs exact %g", got, exact)
	}
}

func TestArray(t *testing.T) {
	a := &array{maxLen: 3}
	feed(a, []int64{1, -1, 1, -1})
	vals := a.data
	if len(vals) != 3 {
		t.Fatalf("array should cap at 3, got %d", len(vals))
	}
	feats := features(a, streaming.View{})
	if len(feats) != 3 || feats[0] != 1 || feats[1] != -1 {
		t.Errorf("features = %v", feats)
	}
}

func TestArrayZeroPadding(t *testing.T) {
	a := &array{maxLen: 5}
	feed(a, []int64{7})
	feats := features(a, streaming.View{})
	if len(feats) != 5 || feats[0] != 7 || feats[4] != 0 {
		t.Errorf("padding wrong: %v", feats)
	}
}

func TestBidirectionalAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	xs := make([]int64, 2000)
	for i := range xs {
		v := int64(r.Intn(1000) + 100)
		if r.Intn(2) == 1 {
			v = -v
		}
		xs[i] = v
	}
	// Magnitude and radius are exact (derived from per-stream
	// Welford); cov/pcc are approximations — checked loosely.
	for _, c := range []struct {
		f   streaming.Func
		eps float64
	}{
		{streaming.FMag, 1e-9}, {streaming.FRadius, 1e-9},
	} {
		b := &bidirectional{}
		feed(b, xs)
		if n := naive(t, c.f, xs); !approx(feat(b, c.f), n, c.eps) {
			t.Errorf("%s: %g vs %g", c.f, feat(b, c.f), n)
		}
	}
}

func TestBidirectionalPCCBounds(t *testing.T) {
	f := func(xs []int64) bool {
		b := &bidirectional{}
		feed(b, xs)
		p := feat(b, streaming.FPCC)
		return p >= -1 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBidirectionalCorrelatedStreams(t *testing.T) {
	// The last-residual incremental covariance detects correlation
	// between slowly-varying interleaved streams (half its residual
	// products pair the current sample with the previous opposite-
	// direction sample, so consecutive-sample correlation is what it
	// measures — as in Kitsune's AfterImage).
	b := &bidirectional{}
	for i := 0; i < 3000; i++ {
		v := int64(500 + 400*math.Sin(float64(i)/50))
		b.Observe(v, 0)
		b.Observe(-(v + 5), 0)
	}
	if p := b.pcc(); p < 0.7 {
		t.Errorf("strongly correlated streams give pcc %g", p)
	}
}

func TestAllReducersRerunIdentically(t *testing.T) {
	specs := []struct {
		f streaming.Func
		p streaming.Params
	}{
		{streaming.FSum, streaming.Params{}}, {streaming.FMean, streaming.Params{}}, {streaming.FVar, streaming.Params{}}, {streaming.FStd, streaming.Params{}},
		{streaming.FMax, streaming.Params{}}, {streaming.FMin, streaming.Params{}}, {streaming.FSkew, streaming.Params{}}, {streaming.FKurtosis, streaming.Params{}},
		{streaming.FCard, streaming.Params{}}, {streaming.FArray, streaming.Params{MaxLen: 8}},
		{streaming.FHist, streaming.Params{BinWidth: 10, Bins: 4}}, {streaming.FPDF, streaming.Params{BinWidth: 10, Bins: 4}},
		{streaming.FCDF, streaming.Params{BinWidth: 10, Bins: 4}}, {streaming.FPercent, streaming.Params{BinWidth: 10, Bins: 4, Quantile: 0.5}},
		{streaming.FMag, streaming.Params{}}, {streaming.FRadius, streaming.Params{}}, {streaming.FCov, streaming.Params{}}, {streaming.FPCC, streaming.Params{}},
		{streaming.FDWeight, streaming.Params{Lambda: 1}}, {streaming.FDMean, streaming.Params{Lambda: 1}}, {streaming.FDStd, streaming.Params{Lambda: 1}},
		{streaming.FD2DMag, streaming.Params{Lambda: 1}}, {streaming.FD2DRadius, streaming.Params{Lambda: 1}},
		{streaming.FD2DCov, streaming.Params{Lambda: 1}}, {streaming.FD2DPCC, streaming.Params{Lambda: 1}},
	}
	for _, s := range specs {
		r := newReducer(s.f, s.p)
		// Two states fed the same stream report the same features.
		xs := []int64{5, -3, 12, 7, -9, 4, 4, 20}
		feedTimed(r, xs)
		first := features(r, streaming.ViewOf(s.f, s.p))
		r = newReducer(s.f, s.p)
		feedTimed(r, xs)
		second := features(r, streaming.ViewOf(s.f, s.p))
		for i := range first {
			if !approx(first[i], second[i], 1e-9) && !(math.IsNaN(first[i]) && math.IsNaN(second[i])) {
				t.Errorf("%s: a rerun changes results: %v vs %v", s.f, first, second)
				break
			}
		}
	}
}

func feedTimed(r reducer, xs []int64) {
	ts := int64(0)
	for _, x := range xs {
		r.Observe(x, ts)
		ts += 1e6
	}
}

func TestDamped1DReducerModes(t *testing.T) {
	for _, c := range []struct {
		f    streaming.Func
		want float64
	}{
		{streaming.FDWeight, 4},
		{streaming.FDMean, 5},
		{streaming.FDStd, 0},
	} {
		r := newDamped1D(1)
		for i := 0; i < 4; i++ {
			r.Observe(5, 0)
		}
		if !approx(feat(r, c.f), c.want, tol) {
			t.Errorf("%s = %g, want %g", c.f, feat(r, c.f), c.want)
		}
	}
}

func TestDamped2DReducerSignConvention(t *testing.T) {
	r := newDamped2D(1)
	r.Observe(300, 0)  // forward
	r.Observe(-400, 0) // backward, magnitude 400
	want := math.Sqrt(300*300 + 400*400)
	if !approx(feat(r, streaming.FD2DMag), want, tol) {
		t.Errorf("magnitude = %g, want %g (sign convention broken)", feat(r, streaming.FD2DMag), want)
	}
}

type spec struct {
	f streaming.Func
	p streaming.Params
}

// familySpecs lists every reducing function at least twice, with
// parameters that differ in what shapes the state (λ, bins, width,
// cap, sketch size) and in what only selects a view (the quantile).
func familySpecs() []spec {
	var specs []spec
	add := func(p streaming.Params, fs ...streaming.Func) {
		for _, f := range fs {
			specs = append(specs, spec{f, p})
		}
	}
	add(streaming.Params{}, streaming.FSum, streaming.FMean, streaming.FVar, streaming.FStd, streaming.FMax, streaming.FMin, streaming.FKurtosis, streaming.FSkew, streaming.FMag, streaming.FRadius, streaming.FCov, streaming.FPCC)
	add(streaming.Params{}, streaming.FSum, streaming.FMean, streaming.FMax, streaming.FCard, streaming.FArray)
	add(streaming.Params{HLLBits: 4}, streaming.FCard)
	add(streaming.Params{MaxLen: 16}, streaming.FArray)
	for _, bins := range []streaming.Params{{BinWidth: 64, Bins: 8}, {BinWidth: 64, Bins: 9}, {BinWidth: 100, Bins: 8}} {
		add(bins, streaming.FHist, streaming.FPDF, streaming.FCDF)
		for _, q := range []float64{0.5, 0.9} {
			bins.Quantile = q
			add(bins, streaming.FPercent)
		}
	}
	for _, l := range []float64{5, 0.1} {
		add(streaming.Params{Lambda: l}, streaming.FDWeight, streaming.FDMean, streaming.FDStd, streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC)
	}
	return specs
}

// TestFamilyViewsMatchPrivateReducers is the license for the FE-NIC's
// state sharing: for every family, reading k views off one shared
// state yields, bit for bit, what k private reducers — one per reduce
// spec — yield when fed the same stream. The stream has
// sign flips (the 2D families split on sign), equal and backwards
// timestamps (the damped families skip the decay), samples beyond the
// histogram range, and fresh states in the middle.
func TestFamilyViewsMatchPrivateReducers(t *testing.T) {
	specs := familySpecs()
	covered := map[streaming.Func]bool{}
	families := map[streaming.Family][]int{}
	var order []streaming.Family
	for i, s := range specs {
		covered[s.f] = true
		fam := streaming.FamilyOf(s.f, s.p)
		if _, ok := families[fam]; !ok {
			order = append(order, fam)
		}
		families[fam] = append(families[fam], i)
	}
	for f := streaming.Func(0); int(f) < streaming.NumFuncsTotal; f++ {
		if int(f) != streaming.NumFuncs && !covered[f] {
			t.Errorf("%s is in no tested family", f)
		}
	}
	// 6 parameterless, 2 sketch sizes, 2 array caps, 3 bin layouts, 2 λ × {1D, 2D}.
	if want := 6 + 2 + 2 + 3 + 4; len(order) != want {
		t.Errorf("%d families, want %d: a state-shaping parameter is not in the family key, or a view-only one is", len(order), want)
	}
	for _, fam := range order {
		members := families[fam]
		first := specs[members[0]]
		state := newReducer(first.f, first.p)
		private := make([]reducer, len(members))
		for i, m := range members {
			private[i] = newReducer(specs[m].f, specs[m].p)
		}
		check := func(step int) {
			for i, m := range members {
				v := streaming.ViewOf(specs[m].f, specs[m].p)
				got, want := features(state, v), features(private[i], v)
				if len(got) != len(want) || len(got) != streaming.FeatureWidth(specs[m].f, specs[m].p) {
					t.Fatalf("%s step %d: %d features from the shared state, %d private, width %d",
						specs[m].f, step, len(got), len(want), streaming.FeatureWidth(specs[m].f, specs[m].p))
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s (family of %s) step %d feature %d: shared %x, private %x",
							specs[m].f, fam.Func, step, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
		rng := rand.New(rand.NewSource(int64(fam.Func) + 1))
		ts := int64(0)
		check(-1) // empty states
		for step := 0; step < 400; step++ {
			if step == 250 {
				// Fresh states mid-stream: the shared state still
				// answers as the private ones from the first sample.
				state = newReducer(first.f, first.p)
				for i, m := range members {
					private[i] = newReducer(specs[m].f, specs[m].p)
				}
				check(step)
			}
			x := rng.Int63n(1500)
			if rng.Intn(3) == 0 {
				x = -x
			}
			switch rng.Intn(4) {
			case 0: // same instant
			case 1:
				ts -= rng.Int63n(1e6) // backwards
			default:
				ts += rng.Int63n(5e8)
			}
			state.Observe(x, ts)
			for _, r := range private {
				r.Observe(x, ts)
			}
			check(step)
		}
	}
}

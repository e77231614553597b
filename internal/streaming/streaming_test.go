package streaming

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
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

// feat reads the single feature f selects from r.
func feat(r Reducer, f Func) float64 { return Features(r, View{Func: f})[0] }

func feed(r Reducer, xs []int64) {
	for _, x := range xs {
		r.Observe(x, 0)
	}
}

func TestSum(t *testing.T) {
	s := &Sum{}
	feed(s, []int64{1, 2, 3, -4})
	if got := feat(s, FSum); got != 2 {
		t.Errorf("sum = %g, want 2", got)
	}
	if s.n != 4 {
		t.Errorf("count = %d", s.n)
	}
}

func TestExtremum(t *testing.T) {
	mx, _ := New(FMax, Params{})
	mn, _ := New(FMin, Params{})
	xs := []int64{5, -3, 17, 0}
	feed(mx, xs)
	feed(mn, xs)
	if feat(mx, FMax) != 17 {
		t.Errorf("max = %g", feat(mx, FMax))
	}
	if feat(mn, FMin) != -3 {
		t.Errorf("min = %g", feat(mn, FMin))
	}
	// Empty reducers emit 0.
	e := &Extremum{max: true}
	if feat(e, FMax) != 0 {
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
		w := &Welford{}
		n := NewNaive(FVar, Params{})
		feed(w, xs)
		feed(n, xs)
		return approx(feat(w, FVar), feat(n, FVar), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordKnown(t *testing.T) {
	w := &Welford{}
	feed(w, []int64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(w.Mean(), 5, tol) {
		t.Errorf("mean = %g, want 5", w.Mean())
	}
	if !approx(w.Var(), 4, tol) {
		t.Errorf("var = %g, want 4", w.Var())
	}
	if std := feat(w, FStd); !approx(std, 2, tol) {
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
	for _, emit := range []Func{FSkew, FKurtosis} {
		m := &Moments{}
		n := NewNaive(emit, Params{})
		feed(m, xs)
		feed(n, xs)
		if !approx(feat(m, emit), feat(n, emit), 1e-6) {
			t.Errorf("%s: streaming %g vs naive %g", emit, feat(m, emit), feat(n, emit))
		}
	}
}

func TestMomentsDegenerate(t *testing.T) {
	m := &Moments{}
	m.Observe(5, 0)
	if feat(m, FSkew) != 0 {
		t.Error("single-sample skew must be 0")
	}
	m2 := &Moments{}
	feed(m2, []int64{3, 3, 3, 3})
	if feat(m2, FKurtosis) != 0 {
		t.Error("constant-stream kurtosis must be 0 (zero variance guard)")
	}
}

func TestHyperLogLogAccuracy(t *testing.T) {
	h, err := NewHyperLogLog(8) // 256 buckets → ~6.5% standard error
	if err != nil {
		t.Fatal(err)
	}
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
	est := h.Estimate()
	if est < 8000 || est > 12000 {
		t.Errorf("HLL estimate %g for 10000 distinct (>20%% off)", est)
	}
}

func TestHyperLogLogSmallRange(t *testing.T) {
	h, _ := NewHyperLogLog(6)
	for i := int64(0); i < 10; i++ {
		h.Observe(i, 0)
	}
	est := h.Estimate()
	if est < 5 || est > 20 {
		t.Errorf("linear-counting estimate %g for 10 distinct", est)
	}
}

func TestHyperLogLogParamValidation(t *testing.T) {
	if _, err := NewHyperLogLog(1); err == nil {
		t.Error("bits=1 accepted")
	}
	if _, err := NewHyperLogLog(17); err == nil {
		t.Error("bits=17 accepted")
	}
}

func TestHyperLogLogHashReuse(t *testing.T) {
	// Observe must set exactly the registers the sample's 32-bit hash
	// selects: the top 6 bits pick the bucket, the leading-zero run of
	// the rest (+1) is the rank.
	h, _ := NewHyperLogLog(6)
	want := make([]uint8, len(h.buckets))
	for i := int64(0); i < 1000; i++ {
		h.Observe(i, 0)
		v := hash32(i)
		if rho := uint8(bits.LeadingZeros32(v<<6|1)) + 1; rho > want[v>>26] {
			want[v>>26] = rho
		}
	}
	if !slices.Equal(h.buckets, want) {
		t.Error("Observe diverges from the hash's register update")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := &Histogram{width: 10, bins: make([]uint32, 4)}
	for _, x := range []int64{0, 9, 10, 25, 39, 40, 1000, -5} {
		h.Observe(x, 0)
	}
	want := []float64{3, 1, 1, 3} // -5,0,9 | 10 | 25 | 39,40(clamp),1000(clamp)
	got := Features(h, View{Func: FHist})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hist = %v, want %v", got, want)
		}
	}
}

func TestHistogramPDFandCDF(t *testing.T) {
	h := &Histogram{width: 10, bins: make([]uint32, 4)}
	for _, v := range []Func{FPDF, FCDF} {
		for _, x := range Features(h, View{Func: v}) {
			if x != 0 {
				t.Errorf("empty %s = %v, want zeros", v, Features(h, View{Func: v}))
			}
		}
	}
	feed(h, []int64{5, 15, 15, 35})
	p := Features(h, View{Func: FPDF})
	if !approx(p[0], 0.25, tol) || !approx(p[1], 0.5, tol) || !approx(p[3], 0.25, tol) {
		t.Errorf("pdf = %v", p)
	}
	c := Features(h, View{Func: FCDF})
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
	h := &Histogram{width: 100, bins: make([]uint32, 16)}
	// Uniform 0..999: median ≈ 500.
	for i := int64(0); i < 1000; i++ {
		h.Observe(i, 0)
	}
	med := h.Quantile(0.5)
	if med < 450 || med > 550 {
		t.Errorf("median = %g, want ≈500", med)
	}
	// Empty histogram.
	e := &Histogram{width: 10, bins: make([]uint32, 4)}
	if e.Quantile(0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
}

func TestHistogramQuantileVsExact(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	h := &Histogram{width: 16, bins: make([]uint32, 128)}
	n := NewNaive(FPercent, Params{BinWidth: 16, Bins: 128, Quantile: 0.9})
	for i := 0; i < 5000; i++ {
		x := int64(r.ExpFloat64() * 300)
		h.Observe(x, 0)
		n.Observe(x, 0)
	}
	sorted := slices.Clone(n.data)
	slices.Sort(sorted)
	exact := float64(sorted[int(0.9*float64(len(sorted)-1))])
	got := h.Quantile(0.9)
	if math.Abs(got-exact)/exact > 0.1 {
		t.Errorf("p90: hist %g vs exact %g", got, exact)
	}
}

func TestVariableHistogram(t *testing.T) {
	v := NewVariableHistogram(100, 2, 4) // edges 100, 300, 700, 1500
	for _, x := range []int64{50, 150, 500, 5000} {
		v.Observe(x)
	}
	got := v.Features()
	want := []float64{1, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("varhist = %v, want %v", got, want)
		}
	}
}

func TestArray(t *testing.T) {
	a := &Array{maxLen: 3}
	feed(a, []int64{1, -1, 1, -1})
	vals := a.data
	if len(vals) != 3 {
		t.Fatalf("array should cap at 3, got %d", len(vals))
	}
	feats := Features(a, View{})
	if len(feats) != 3 || feats[0] != 1 || feats[1] != -1 {
		t.Errorf("features = %v", feats)
	}
	if a.StateBytes() != 24 {
		t.Errorf("state bytes = %d", a.StateBytes())
	}
}

func TestArrayZeroPadding(t *testing.T) {
	a := &Array{maxLen: 5}
	feed(a, []int64{7})
	feats := Features(a, View{})
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
		f   Func
		eps float64
	}{
		{FMag, 1e-9}, {FRadius, 1e-9},
	} {
		b := &Bidirectional{}
		n := NewNaive(c.f, Params{})
		feed(b, xs)
		feed(n, xs)
		if !approx(feat(b, c.f), feat(n, c.f), c.eps) {
			t.Errorf("%s: %g vs %g", c.f, feat(b, c.f), feat(n, c.f))
		}
	}
}

func TestBidirectionalPCCBounds(t *testing.T) {
	f := func(xs []int64) bool {
		b := &Bidirectional{}
		feed(b, xs)
		p := feat(b, FPCC)
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
	b := &Bidirectional{}
	for i := 0; i < 3000; i++ {
		v := int64(500 + 400*math.Sin(float64(i)/50))
		b.Observe(v, 0)
		b.Observe(-(v + 5), 0)
	}
	if p := b.PCC(); p < 0.7 {
		t.Errorf("strongly correlated streams give pcc %g", p)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(FHist, Params{}); err == nil {
		t.Error("ft_hist without params accepted")
	}
	if _, err := New(FPercent, Params{BinWidth: 10, Bins: 4}); err == nil {
		t.Error("ft_percent without quantile accepted")
	}
	if _, err := New(FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 1.5}); err == nil {
		t.Error("quantile out of range accepted")
	}
	if _, err := New(FDMean, Params{}); err == nil {
		t.Error("damped function without lambda accepted")
	}
	if _, err := New(Func(200), Params{}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestFeatureWidth(t *testing.T) {
	if FeatureWidth(FHist, Params{Bins: 16}) != 16 {
		t.Error("hist width")
	}
	if FeatureWidth(FArray, Params{MaxLen: 100}) != 100 {
		t.Error("array width")
	}
	if FeatureWidth(FArray, Params{}) != DefaultMaxArray {
		t.Error("array default width")
	}
	if FeatureWidth(FMean, Params{}) != 1 {
		t.Error("scalar width")
	}
}

func TestFuncStrings(t *testing.T) {
	// Every function in the extended set has a proper name.
	for f := Func(0); int(f) < NumFuncsTotal; f++ {
		if f == Func(NumFuncs) {
			continue // numFuncs sentinel value inside the range
		}
		name := f.String()
		if len(name) > 2 && name[:2] == "f(" {
			t.Errorf("func %d has fallback name %q", f, name)
		}
	}
}

func TestAllReducersRerunIdentically(t *testing.T) {
	specs := []struct {
		f Func
		p Params
	}{
		{FSum, Params{}}, {FMean, Params{}}, {FVar, Params{}}, {FStd, Params{}},
		{FMax, Params{}}, {FMin, Params{}}, {FSkew, Params{}}, {FKurtosis, Params{}},
		{FCard, Params{}}, {FArray, Params{MaxLen: 8}},
		{FHist, Params{BinWidth: 10, Bins: 4}}, {FPDF, Params{BinWidth: 10, Bins: 4}},
		{FCDF, Params{BinWidth: 10, Bins: 4}}, {FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 0.5}},
		{FMag, Params{}}, {FRadius, Params{}}, {FCov, Params{}}, {FPCC, Params{}},
		{FDWeight, Params{Lambda: 1}}, {FDMean, Params{Lambda: 1}}, {FDStd, Params{Lambda: 1}},
		{FD2DMag, Params{Lambda: 1}}, {FD2DRadius, Params{Lambda: 1}},
		{FD2DCov, Params{Lambda: 1}}, {FD2DPCC, Params{Lambda: 1}},
	}
	for _, s := range specs {
		r, err := New(s.f, s.p)
		if err != nil {
			t.Fatalf("New(%s): %v", s.f, err)
		}
		// Two states fed the same stream report the same features.
		xs := []int64{5, -3, 12, 7, -9, 4, 4, 20}
		feedTimed(r, xs)
		first := Features(r, ViewOf(s.f, s.p))
		if r, err = New(s.f, s.p); err != nil {
			t.Fatalf("New(%s): %v", s.f, err)
		}
		feedTimed(r, xs)
		second := Features(r, ViewOf(s.f, s.p))
		for i := range first {
			if !approx(first[i], second[i], 1e-9) && !(math.IsNaN(first[i]) && math.IsNaN(second[i])) {
				t.Errorf("%s: a rerun changes results: %v vs %v", s.f, first, second)
				break
			}
		}
		if r.StateBytes() < 0 {
			t.Errorf("%s: negative state bytes", s.f)
		}
	}
}

func feedTimed(r Reducer, xs []int64) {
	ts := int64(0)
	for _, x := range xs {
		r.Observe(x, ts)
		ts += 1e6
	}
}

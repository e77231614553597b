package streaming

import (
	"math"
	"testing"
)

// naiveLog is one store-everything state, fed and read as the NIC
// feeds and reads it: a naive log (NaiveKernel) over its record word.
type naiveLog struct {
	k  Kernel
	st []uint64
	n  uint64 // samples observed
	f  Func
	p  Params
}

func newNaiveLog(t *testing.T, f Func, p Params, logs *Logs) *naiveLog {
	t.Helper()
	k, err := NaiveKernel(f, p, logs)
	if err != nil {
		t.Fatal(err)
	}
	return &naiveLog{k: k, st: make([]uint64, k.Words), f: f, p: p}
}

// observe logs x at the step's time.
func (n *naiveLog) observe(x int64, s *Step) {
	n.k.Observe(n.st, x, s)
	n.n++
}

// read is the log's first feature, by the batch algorithm.
func (n *naiveLog) read() float64 {
	plan := n.k.PlanRead([]View{{Func: n.f}}, []int{0})
	win := make([]float64, FeatureWidth(n.f, n.p))
	n.k.Read(win, n.st, n.n, &plan)
	return win[0]
}

func TestDampedNoDecayEqualsPlainStats(t *testing.T) {
	// All samples at the same timestamp: damped == plain statistics.
	d := DampedWelford{Lambda: 1}
	var logs Logs
	mean, variance := newNaiveLog(t, FMean, Params{}, &logs), newNaiveLog(t, FVar, Params{}, &logs)
	var s Step
	for _, x := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		d.ObserveAt(float64(x), 0)
		mean.observe(x, &s)
		variance.observe(x, &s)
	}
	if !approx(d.Mean(), mean.read(), tol) {
		t.Errorf("mean: damped %g vs plain %g", d.Mean(), mean.read())
	}
	if !approx(d.Var(), variance.read(), tol) {
		t.Errorf("var: damped %g vs plain %g", d.Var(), variance.read())
	}
	if !approx(d.Weight(), 8, tol) {
		t.Errorf("weight = %g, want 8", d.Weight())
	}
}

func TestDampedHalving(t *testing.T) {
	// λ=1/s: after exactly 1s the weight halves (2^-1).
	d := DampedWelford{Lambda: 1}
	d.ObserveAt(100, 0)
	if !approx(d.Weight(), 1, tol) {
		t.Fatalf("weight after first sample = %g", d.Weight())
	}
	d.ObserveAt(100, 1_000_000_000)
	// Old weight 1 decayed to 0.5, plus the new sample.
	if !approx(d.Weight(), 1.5, tol) {
		t.Errorf("weight after 1s = %g, want 1.5", d.Weight())
	}
}

func TestDampedForgetsOldTraffic(t *testing.T) {
	d := DampedWelford{Lambda: 5}
	// A burst of large packets, then much later small packets.
	for i := 0; i < 50; i++ {
		d.ObserveAt(1500, int64(i)*1e6)
	}
	for i := 0; i < 50; i++ {
		d.ObserveAt(60, 10_000_000_000+int64(i)*1e6)
	}
	if m := d.Mean(); math.Abs(m-60) > 1 {
		t.Errorf("after 10s idle the mean should be ≈60, got %g", m)
	}
}

func TestDampedOutOfOrderTimestampsSafe(t *testing.T) {
	d := DampedWelford{Lambda: 1}
	d.ObserveAt(10, 1e9)
	d.ObserveAt(20, 5e8) // out of order: decay must not go negative
	if d.Weight() < 1.9 {
		t.Errorf("out-of-order sample mishandled: w=%g", d.Weight())
	}
}

func TestDamped2DDirectionalSplit(t *testing.T) {
	d := NewDamped2D(1)
	for i := 0; i < 100; i++ {
		d.ObserveA(1000, int64(i)*1e6)
		d.ObserveB(100, int64(i)*1e6)
	}
	mag := d.Magnitude()
	want := math.Sqrt(1000*1000 + 100*100)
	if !approx(mag, want, 1e-6) {
		t.Errorf("magnitude = %g, want %g", mag, want)
	}
	if r := d.Radius(); r > 1e-6 {
		t.Errorf("constant streams must have ~0 radius, got %g", r)
	}
}

func TestDamped2DPCCBounds(t *testing.T) {
	d := NewDamped2D(0.5)
	for i := 0; i < 500; i++ {
		v := float64(i%17) * 100
		d.ObserveA(v, int64(i)*1e6)
		d.ObserveB(v+10, int64(i)*1e6+1000)
	}
	p := d.PCC()
	if p < -1 || p > 1 {
		t.Fatalf("pcc out of bounds: %g", p)
	}
	if p < 0.5 {
		t.Errorf("strongly correlated streams give pcc %g", p)
	}
}

func TestNaiveDampedMatchesStreaming(t *testing.T) {
	// The naive replay of damped stats must agree with the streaming
	// computation, the NIC's kernel (same algorithm, buffered).
	for _, f := range []Func{FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC} {
		var d Decay
		k, err := KernelFor(f, Params{Lambda: 2}, &d, nil)
		if err != nil {
			t.Fatal(err)
		}
		var logs Logs
		n := newNaiveLog(t, f, Params{Lambda: 2}, &logs)
		st := make([]uint64, k.Words)
		var s Step
		var clock, ts int64
		for i := 0; i < 200; i++ {
			x := int64((i%13)*50 - 300)
			d.Reset()
			clock = s.Begin(&d, k.Lanes(), uint64(i), clock, ts)
			k.Observe(st, x, &s)
			n.observe(x, &s)
			ts += 3e6
		}
		plan := k.PlanRead([]View{{Func: f}}, []int{0})
		win := make([]float64, 1)
		k.Read(win, st, 200, &plan)
		if naive := n.read(); !approx(win[0], naive, 1e-9) {
			t.Errorf("%s: streaming %g vs naive replay %g", f, win[0], naive)
		}
	}
}

func TestIntMeanDivisionElimination(t *testing.T) {
	exact := &IntMean{Exact: true}
	elim := &IntMean{}
	for i := int64(0); i < 10000; i++ {
		x := 500 + (i % 100)
		exact.Observe(x)
		elim.Observe(x)
	}
	// The optimized mean must track the exact mean closely.
	if math.Abs(float64(exact.Mean()-elim.Mean())) > 5 {
		t.Errorf("division-free mean drifted: exact %d vs elim %d", exact.Mean(), elim.Mean())
	}
	// And must use drastically fewer divisions (>98% eliminated —
	// the measurement the cost model's 2% residue constant encodes).
	if elim.DivisionsUsed*50 > exact.DivisionsUsed {
		t.Errorf("division elimination ineffective: %d vs %d", elim.DivisionsUsed, exact.DivisionsUsed)
	}
	if elim.ComparesUsed == 0 {
		t.Error("no compares recorded")
	}
}

func TestIntMeanOutliers(t *testing.T) {
	im := &IntMean{}
	for i := 0; i < 100; i++ {
		im.Observe(10)
	}
	im.Observe(1_000_000) // outlier takes the real-division path
	if im.DivisionsUsed < 1 {
		t.Error("outlier should have used a division")
	}
	if im.Mean() < 10 || im.Mean() > 20000 {
		t.Errorf("mean after outlier implausible: %d", im.Mean())
	}
}

func TestProvisionedBytes(t *testing.T) {
	if ProvisionedBytes(FArray, Params{MaxLen: 5000}) != 512 {
		t.Error("array must provision a fixed resident window")
	}
	if ProvisionedBytes(FDMean, Params{Lambda: 1}) != 16 {
		t.Error("damped 1D packs to 16B")
	}
	if ProvisionedBytes(FSum, Params{}) != 16 {
		t.Error("sum is 16B")
	}
	if ProvisionedBytes(FHist, Params{BinWidth: 10, Bins: 4}) != 4*4+8 {
		t.Errorf("hist provision = %d", ProvisionedBytes(FHist, Params{BinWidth: 10, Bins: 4}))
	}
}

func TestIsTimed(t *testing.T) {
	if IsTimed(FMean) {
		t.Error("f_mean is not timed")
	}
	for _, f := range []Func{FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC} {
		if !IsTimed(f) {
			t.Errorf("%s must be timed", f)
		}
	}
}

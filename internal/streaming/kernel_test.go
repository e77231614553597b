package streaming

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKernelsMatchReducers lays every inline family of familySpecs out
// in one record — the states interleaved with guard words, the damped
// ones on one clock and one Decay, as a group record holds them — and
// feeds it the hostile stream of TestFamilyViewsMatchPrivateReducers
// (sign flips for the 2D split, equal and backwards timestamps, samples
// beyond the histogram range) beside one streaming.New reducer per
// family. After every sample every view of every state must read, bit
// for bit, what its reducer reads, as single views and as one run; the
// guards must stand; and a kernel must model the bytes its reducer
// reports.
func TestKernelsMatchReducers(t *testing.T) {
	const guard = 0xA5A5A5A5A5A5A5A5
	type state struct {
		kern    Kernel
		off     int
		reducer Reducer
		views   []View
	}
	var states []state
	var decay Decay
	var lanes []int
	kinds := map[kind]bool{}
	seen := map[Family]int{}
	words := 1
	for _, s := range familySpecs() {
		fam := FamilyOf(s.f, s.p)
		if i, ok := seen[fam]; ok {
			states[i].views = append(states[i].views, ViewOf(s.f, s.p))
			continue
		}
		k, inline, err := KernelFor(s.f, s.p)
		if err != nil {
			t.Fatal(err)
		}
		if !inline {
			if s.f != FCard && s.f != FArray {
				t.Errorf("%s is out of line", s.f)
			}
			continue
		}
		if k.Lambda != 0 {
			k.Lane = decay.Lane(k.Lambda)
			lanes = append(lanes, k.Lane)
		}
		r, err := New(s.f, s.p)
		if err != nil {
			t.Fatal(err)
		}
		if k.StateBytes != r.StateBytes() {
			t.Errorf("%s: kernel models %d bytes, its reducer %d", s.f, k.StateBytes, r.StateBytes())
		}
		kinds[k.kind] = true
		seen[fam] = len(states)
		states = append(states, state{kern: k, off: words, reducer: r, views: []View{ViewOf(s.f, s.p)}})
		words += k.Words + 1
	}
	if len(kinds) != 8 {
		t.Fatalf("%d inline families under test, want 8", len(kinds))
	}
	rec := make([]uint64, words)
	guards := []int{0}
	for _, st := range states {
		guards = append(guards, st.off+st.kern.Words)
	}
	for _, g := range guards {
		rec[g] = guard
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
			var want []float64
			for _, v := range st.views {
				one := Features(st.reducer, v)
				if got := st.kern.AppendViews(nil, rec[st.off:], []View{v}); !sameBits(got, one) {
					t.Fatalf("step %d %s: kernel reads %v, reducer %v", step, v.Func, got, one)
				}
				want = append(want, one...)
			}
			if got := st.kern.AppendViews(nil, rec[st.off:], st.views); !sameBits(got, want) {
				t.Fatalf("step %d family of %s: the run reads %v, the reducer view by view %v", step, st.views[0].Func, got, want)
			}
		}
	}
	check(-1) // empty states
	rng := rand.New(rand.NewSource(1))
	var step Step
	clock, ts := int64(0), int64(1e9)
	for i := 0; i < 600; i++ {
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
		decay.Reset()
		clock = step.Begin(&decay, lanes, i == 0, clock, ts)
		for j := range states {
			st := &states[j]
			st.kern.Observe(rec[st.off:], x, &step)
			st.reducer.Observe(x, ts)
		}
		check(i)
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
		k, inline, err := KernelFor(s.f, s.p)
		if err != nil {
			t.Fatal(err)
		}
		if !inline || k.Lambda != 0 {
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
			k.ObserveRun(runs, xs[i:i+n], &step)
			i += n
		}
		if !slices.Equal(one, runs) {
			t.Errorf("%s: runs leave %v, Observe %v", s.f, runs, one)
		}
	}
	if len(tested) != 6 {
		t.Fatalf("%d clock-free families under test, want 6", len(tested))
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

// TestDecayComputesEachFactorOnce: within a cell a (lane, interval)
// pair costs one DecayFactor however many groups and direction halves
// ask for it, and Reset forgets the cell.
func TestDecayComputesEachFactorOnce(t *testing.T) {
	var d Decay
	fast, slow := d.Lane(5), d.Lane(0.1)
	if d.Lane(5) != fast || fast == slow {
		t.Fatalf("lanes %d and %d", fast, slow)
	}
	var s Step
	d.Reset()
	s.Begin(&d, []int{fast}, false, 0, 3e8)
	if got, want := s.factors[fast], DecayFactor(5, 3e8); got != want {
		t.Errorf("factor %v, want %v", got, want)
	}
	row := d.row(3e8)
	if d.n != 1 || !row.ok[fast] || row.ok[slow] {
		t.Errorf("after one group: %d intervals, lanes %v", d.n, row.ok)
	}
	row.f[fast] = -1 // a recomputation would overwrite the mark
	s.Begin(&d, []int{fast, slow}, false, 7e8, 1e9)
	if d.n != 1 || s.factors[fast] != -1 || s.factors[slow] != DecayFactor(0.1, 3e8) {
		t.Errorf("a second group at the same interval: %d intervals, factors %v", d.n, s.factors)
	}
	if got := d.factor(d.row(4e8), slow); got != DecayFactor(0.1, 4e8) || d.n != 2 {
		t.Errorf("a half's own interval: factor %v, %d intervals", got, d.n)
	}
	d.Reset()
	if s.Begin(&d, []int{fast}, false, 0, 3e8); s.factors[fast] != DecayFactor(5, 3e8) {
		t.Error("a factor outlived its cell")
	}
}

// TestConstructorRejectsWhatNewRejects: validation happens once, when
// the kernel is resolved.
func TestConstructorRejectsWhatNewRejects(t *testing.T) {
	for _, s := range []spec{
		{FHist, Params{}}, {FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 1}},
		{FCard, Params{HLLBits: 40}}, {FDMean, Params{}}, {numFuncsExt, Params{}},
	} {
		if _, err := New(s.f, s.p); err == nil {
			t.Fatalf("%s %+v: fixture is valid", s.f, s.p)
		}
		if _, inline, err := KernelFor(s.f, s.p); err == nil || inline {
			t.Errorf("KernelFor(%s, %+v) accepted what New rejects", s.f, s.p)
		}
	}
}

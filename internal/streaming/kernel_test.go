package streaming

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

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
			step.N = uint64(i)
			k.Observe(one, x, &step)
		}
		for i := 0; i < len(xs); {
			n := min(len(xs)-i, rng.Intn(40))
			step.N = uint64(i)
			kr.ObserveRun(runs, xs[i:i+n], nil, &step)
			i += n
		}
		read := func(k *Kernel, st []uint64) []float64 {
			plan := k.PlanRead([]View{ViewOf(s.f, s.p)}, []int{0})
			win := make([]float64, FeatureWidth(s.f, s.p))
			k.Read(win, st, uint64(len(xs)), &plan)
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
	s.Begin(&d, []int{fast}, 1, 0, 3e8)
	if got, want := s.factors[fast], DecayFactor(5, 3e8); got != want || d.n != 1 {
		t.Errorf("factor %v, want %v; %d intervals", got, want, d.n)
	}
	// A direction half on slow, its clock as far behind as the group's,
	// reads the row a group that decays on fast alone claimed.
	if got := d.row(3e8)[slow]; got != DecayFactor(0.1, 3e8) || d.n != 1 {
		t.Errorf("the other lane of a claimed row: factor %v, %d intervals", got, d.n)
	}
	s.factors[fast], s.factors[slow] = -1, -2 // a recomputation would overwrite the marks
	s.Begin(&d, []int{fast, slow}, 1, 7e8, 1e9)
	if d.n != 1 || s.factors[fast] != -1 || s.factors[slow] != -2 {
		t.Errorf("a second group at the same interval: %d intervals, factors %v", d.n, s.factors)
	}
	if got := d.row(4e8)[slow]; got != DecayFactor(0.1, 4e8) || d.n != 2 {
		t.Errorf("a half's own interval: factor %v, %d intervals", got, d.n)
	}
	d.Reset()
	s.Begin(&d, []int{fast}, 1, 0, 3e8)
	if s.factors[fast] != DecayFactor(5, 3e8) || s.factors[slow] != DecayFactor(0.1, 3e8) {
		t.Error("a factor outlived its cell")
	}
}

// TestConstructorRejectsWhatNewRejects: validation happens once, when
// the kernel is resolved, and it is Validate's.
func TestConstructorRejectsWhatNewRejects(t *testing.T) {
	for _, s := range []spec{
		{FHist, Params{}}, {FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 1}},
		{FCard, Params{HLLBits: 40}}, {FDMean, Params{}}, {numFuncsExt, Params{}},
		{FPercent, Params{BinWidth: 10, Bins: 4, Quantile: math.NaN()}},
		{FDMean, Params{Lambda: math.NaN()}}, {FD2DCov, Params{Lambda: math.Inf(1)}},
		{FArray, Params{MaxLen: -5}}, {FCard, Params{HLLBits: 1}}, {FCard, Params{HLLBits: 17}},
	} {
		if err := Validate(s.f, s.p); err == nil {
			t.Fatalf("%s %+v: fixture is valid", s.f, s.p)
		}
		if _, err := KernelFor(s.f, s.p, new(Decay), new(Logs)); err == nil {
			t.Errorf("KernelFor(%s, %+v) accepted what Validate rejects", s.f, s.p)
		}
		if _, err := NaiveKernel(s.f, s.p, new(Logs)); err == nil {
			t.Errorf("NaiveKernel(%s, %+v) accepted what Validate rejects", s.f, s.p)
		}
	}
}

// TestKernelKinds: every family's kernel has a kind no other family's
// has, but f_min's, which is f_max's — so the families a test covers,
// f_min counted as f_max, name the kernel kinds it covers
// (baseline.TestKernelsMatchReducers counts its ten that way).
func TestKernelKinds(t *testing.T) {
	kindOf := map[Func]kind{}
	familyOf := map[kind]Func{}
	for _, s := range familySpecs() {
		k, err := KernelFor(s.f, s.p, new(Decay), new(Logs))
		if err != nil {
			t.Fatal(err)
		}
		fam := FamilyOf(s.f, s.p).Func
		if fam == FMin {
			fam = FMax
		}
		if o, ok := kindOf[fam]; ok && o != k.kind {
			t.Errorf("the family of %s has kernel kinds %d and %d", fam, o, k.kind)
		}
		if o, ok := familyOf[k.kind]; ok && o != fam {
			t.Errorf("families %s and %s share kernel kind %d", o, fam, k.kind)
		}
		kindOf[fam], familyOf[k.kind] = k.kind, fam
	}
	if len(familyOf) != int(kindLog)+1 {
		t.Errorf("familySpecs reach %d kernel kinds, want %d", len(familyOf), kindLog+1)
	}
}

package streaming

import (
	"math"
	"math/rand"
	"testing"
)

type spec struct {
	f Func
	p Params
}

// familySpecs lists every reducing function at least twice, with
// parameters that differ in what shapes the state (λ, bins, width,
// cap, sketch size) and in what only selects a view (the quantile).
func familySpecs() []spec {
	var specs []spec
	add := func(p Params, fs ...Func) {
		for _, f := range fs {
			specs = append(specs, spec{f, p})
		}
	}
	add(Params{}, FSum, FMean, FVar, FStd, FMax, FMin, FKurtosis, FSkew, FMag, FRadius, FCov, FPCC)
	add(Params{}, FSum, FMean, FMax, FCard, FArray)
	add(Params{HLLBits: 4}, FCard)
	add(Params{MaxLen: 16}, FArray)
	for _, bins := range []Params{{BinWidth: 64, Bins: 8}, {BinWidth: 64, Bins: 9}, {BinWidth: 100, Bins: 8}} {
		add(bins, FHist, FPDF, FCDF)
		for _, q := range []float64{0.5, 0.9} {
			bins.Quantile = q
			add(bins, FPercent)
		}
	}
	for _, l := range []float64{5, 0.1} {
		add(Params{Lambda: l}, FDWeight, FDMean, FDStd, FD2DMag, FD2DRadius, FD2DCov, FD2DPCC)
	}
	return specs
}

// TestFamilyViewsMatchPrivateReducers is the license for the FE-NIC's
// state sharing: for every family, reading k views off one shared
// state yields, bit for bit, what k private reducers — one streaming.New
// per reduce spec — yield when fed the same stream. The stream has
// sign flips (the 2D families split on sign), equal and backwards
// timestamps (the damped families skip the decay), samples beyond the
// histogram range, and fresh states in the middle.
func TestFamilyViewsMatchPrivateReducers(t *testing.T) {
	specs := familySpecs()
	covered := map[Func]bool{}
	families := map[Family][]int{}
	var order []Family
	for i, s := range specs {
		covered[s.f] = true
		fam := FamilyOf(s.f, s.p)
		if _, ok := families[fam]; !ok {
			order = append(order, fam)
		}
		families[fam] = append(families[fam], i)
	}
	for f := Func(0); f < numFuncsExt; f++ {
		if f != numFuncs && !covered[f] {
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
		state, err := New(first.f, first.p)
		if err != nil {
			t.Fatal(err)
		}
		private := make([]Reducer, len(members))
		for i, m := range members {
			if private[i], err = New(specs[m].f, specs[m].p); err != nil {
				t.Fatal(err)
			}
		}
		check := func(step int) {
			for i, m := range members {
				v := ViewOf(specs[m].f, specs[m].p)
				got, want := Features(state, v), Features(private[i], v)
				if len(got) != len(want) || len(got) != FeatureWidth(specs[m].f, specs[m].p) {
					t.Fatalf("%s step %d: %d features from the shared state, %d private, width %d",
						specs[m].f, step, len(got), len(want), FeatureWidth(specs[m].f, specs[m].p))
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
				if state, err = New(first.f, first.p); err != nil {
					t.Fatal(err)
				}
				for i, m := range members {
					if private[i], err = New(specs[m].f, specs[m].p); err != nil {
						t.Fatal(err)
					}
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
		if got, want := state.StateBytes(), private[0].StateBytes(); got != want {
			t.Errorf("family of %s: shared state is %d bytes, a private one %d", fam.Func, got, want)
		}
	}
}

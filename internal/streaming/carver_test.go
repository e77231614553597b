package streaming

import (
	"math"
	"testing"
)

// TestCarvedStatesMatchNew resolves a constructor for every spec on
// one Carver — so families of one state type, and every histogram's
// bins, interleave in shared blocks — builds enough states round-robin
// to cross several block boundaries, feeds each its own stream, and
// requires every state to read exactly what a streaming.New state fed
// that stream reads: carved neighbours share an allocation and nothing
// else, and a carved state starts where New's does.
func TestCarvedStatesMatchNew(t *testing.T) {
	var c Carver
	specs := familySpecs()
	allocs := make([]func() Reducer, len(specs))
	for i, s := range specs {
		var err error
		if allocs[i], err = c.Constructor(s.f, s.p); err != nil {
			t.Fatal(err)
		}
	}
	const n = CarveBlock + 3
	carved, fresh := make([][]Reducer, len(specs)), make([][]Reducer, len(specs))
	for round := 0; round < n; round++ {
		for i, s := range specs {
			r, err := New(s.f, s.p)
			if err != nil {
				t.Fatal(err)
			}
			carved[i], fresh[i] = append(carved[i], allocs[i]()), append(fresh[i], r)
		}
	}
	for si, s := range specs {
		carved, fresh := carved[si], fresh[si]
		for step := 0; step < 40; step++ {
			for i := range carved {
				x := int64((si*13+i*37+step*101)%1500) - 300
				carved[i].Observe(x, int64(step)*3e8)
				fresh[i].Observe(x, int64(step)*3e8)
			}
		}
		v := ViewOf(s.f, s.p)
		for i := range carved {
			got, want := Features(carved[i], v), Features(fresh[i], v)
			if len(got) != len(want) || carved[i].StateBytes() != fresh[i].StateBytes() {
				t.Fatalf("%s state %d: %d features / %d bytes carved, %d / %d from New", s.f, i,
					len(got), carved[i].StateBytes(), len(want), fresh[i].StateBytes())
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s state %d feature %d: carved %v, New %v", s.f, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestConstructorRejectsWhatNewRejects: validation happens once, at
// resolution.
func TestConstructorRejectsWhatNewRejects(t *testing.T) {
	for _, s := range []spec{
		{FHist, Params{}}, {FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 1}},
		{FCard, Params{HLLBits: 40}}, {FDMean, Params{}}, {numFuncsExt, Params{}},
	} {
		if _, err := New(s.f, s.p); err == nil {
			t.Fatalf("%s %+v: fixture is valid", s.f, s.p)
		}
		if alloc, err := new(Carver).Constructor(s.f, s.p); err == nil || alloc != nil {
			t.Errorf("Constructor(%s, %+v) accepted what New rejects", s.f, s.p)
		}
	}
}

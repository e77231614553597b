package feature

import (
	"math"
	"testing"

	"superfe/internal/flowkey"
)

func TestCollectCopiesValues(t *testing.T) {
	var out []Vector
	sink := Collect(&out)
	vals := []float64{1, 2, 3}
	sink(Vector{Key: flowkey.Key{Gran: flowkey.GranFlow}, Values: vals})
	vals[0] = 99 // mutate the caller's slice
	if out[0].Values[0] != 1 {
		t.Error("Collect must copy values")
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{Key: flowkey.Key{Gran: flowkey.GranHost, Tuple: flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 0, 0, 1)}}, Values: []float64{1, 2}}
	if s := v.String(); s == "" {
		t.Error("empty string")
	}
}

// TestDiff pins the one engine-vector comparison: multiset equality
// ignores order, exact equality does not, and any bit of key,
// timestamp or value differs — signed zeros and NaN payloads included.
func TestDiff(t *testing.T) {
	k1 := flowkey.Key{Gran: flowkey.GranFlow, Tuple: flowkey.FiveTuple{SrcPort: 1}}
	k2 := flowkey.Key{Gran: flowkey.GranFlow, Tuple: flowkey.FiveTuple{SrcPort: 2}}
	a := []Vector{{Key: k1, Values: []float64{1}}, {Key: k2, Values: []float64{2}}}
	swapped := []Vector{a[1], a[0]}
	if d := Diff("a", a, "b", swapped, false); d != "" {
		t.Errorf("multiset comparison saw order: %s", d)
	}
	if Diff("a", a, "b", swapped, true) == "" {
		t.Error("exact comparison missed a reordering")
	}
	if Diff("a", a, "b", a[:1], false) == "" {
		t.Error("a lost vector went unnoticed")
	}
	nan := math.Float64frombits(0x7ff8000000000002)
	for name, b := range map[string]Vector{
		"timestamp":   {Key: k1, Timestamp: 1, Values: []float64{1}},
		"signed zero": {Key: k1, Values: []float64{math.Copysign(0, -1)}},
		"NaN payload": {Key: k1, Values: []float64{nan}},
		"last value":  {Key: k1, Values: []float64{1, 0}},
	} {
		ref := Vector{Key: k1, Values: []float64{1}}
		switch name {
		case "signed zero":
			ref.Values = []float64{0}
		case "NaN payload":
			ref.Values = []float64{math.NaN()}
		}
		if Diff("ref", []Vector{ref}, name, []Vector{b}, true) == "" {
			t.Errorf("%s difference went unnoticed", name)
		}
	}
}

package streaming

import (
	"math"
	"testing"
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

func TestHyperLogLogParamValidation(t *testing.T) {
	if err := Validate(FCard, Params{HLLBits: 1}); err == nil {
		t.Error("bits=1 accepted")
	}
	if err := Validate(FCard, Params{HLLBits: 17}); err == nil {
		t.Error("bits=17 accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if err := Validate(FHist, Params{}); err == nil {
		t.Error("ft_hist without params accepted")
	}
	if err := Validate(FPercent, Params{BinWidth: 10, Bins: 4}); err == nil {
		t.Error("ft_percent without quantile accepted")
	}
	if err := Validate(FPercent, Params{BinWidth: 10, Bins: 4, Quantile: 1.5}); err == nil {
		t.Error("quantile out of range accepted")
	}
	if err := Validate(FDMean, Params{}); err == nil {
		t.Error("damped function without lambda accepted")
	}
	if err := Validate(Func(200), Params{}); err == nil {
		t.Error("unknown function accepted")
	}
	for _, s := range familySpecs() {
		if err := Validate(s.f, s.p); err != nil {
			t.Errorf("%s %+v rejected: %v", s.f, s.p, err)
		}
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

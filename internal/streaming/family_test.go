package streaming

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

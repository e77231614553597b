package harness

import (
	"fmt"
	"math"
	"sort"

	"superfe/internal/baseline"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/mlsim"
	"superfe/internal/nicsim"
	"superfe/internal/streaming"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

// Fig9 regenerates the multi-100Gbps performance comparison: raw
// traffic throughput sustainable by SuperFE versus the applications'
// original software feature extractors. SuperFE's rate is the
// minimum of three bounds — the switch pipeline (3.2 Tb/s), the
// switch→NIC links carrying the aggregated MGPV stream (2×40G /
// aggregation ratio), and the NIC compute rate from the cycle model —
// while the software path is bounded by per-packet CPU work on the
// mirrored raw stream.
func Fig9(s Scale) Table {
	t := Table{
		ID:      "fig9",
		Title:   "Throughput: SuperFE-accelerated apps vs original software (Gbps of raw traffic)",
		Note:    "paper: SuperFE sustains multi-100Gbps, ~2 orders of magnitude above the software extractors",
		Headers: []string{"App", "SuperFE", "Software", "Speedup", "Bound"},
	}
	const switchGbps = 3200.0 // Tofino pipeline
	const nicLinkGbps = 80.0  // 2 × 40G NFP-4000
	tr := workloads(s)[1]     // ENTERPRISE
	stats := tr.Stats()
	for _, e := range studyApps() {
		plan := compileStudy(e.Name)
		swStats := runSwitch(switchsim.DefaultConfig(), plan.Switch, tr)
		agg := swStats.AggregationRatio()
		passRate := 1 - float64(swStats.PktsFiltered)/float64(swStats.PktsIn)
		if passRate <= 0 {
			passRate = 1e-9
		}
		// NIC compute bound, in raw-traffic Gbps.
		cfg := nicsim.TwoNICConfig()
		pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
		if err != nil {
			must(err)
		}
		cm := nicsim.NewCostModel(cfg, plan.NIC, pl)
		computeGbps := cm.ThroughputGbps(cfg.Cores(), stats.AvgPacketSize) / passRate
		linkGbps := nicLinkGbps / math.Max(agg, 1e-4)
		superfe := math.Min(switchGbps, math.Min(linkGbps, computeGbps))
		bound := "switch"
		switch superfe {
		case computeGbps:
			bound = "NIC compute"
		case linkGbps:
			bound = "NIC links"
		}
		// Original software extractor: single-server, per-packet work
		// proportional to the unoptimized feature computation plus
		// parse/mirror overhead.
		noopt := nicsim.DefaultConfig()
		noopt.Opt = nicsim.Optimizations{}
		plNo, err := nicsim.Place(noopt, plan.NIC.StateSpecs)
		if err != nil {
			must(err)
		}
		cmNo := nicsim.NewCostModel(noopt, plan.NIC, plNo)
		sw := baseline.ServerModel{
			Cores:        8,
			CyclesPerPkt: cmNo.CyclesPerCell()*4 + 8000,
			FreqHz:       2.1e9,
		}
		softGbps := sw.ThroughputGbps(stats.AvgPacketSize)
		t.AddRow(e.Name, fmtF(superfe, 0), fmtF(softGbps, 1), fmtF(superfe/softGbps, 0)+"x", bound)
	}
	return t
}

// Fig10 regenerates the feature-fidelity experiment: relative error
// of SuperFE's streaming feature values against the standard (exact
// batch) definitions, per feature family, next to an emulation of
// the original Kitsune implementation (float32 state, the same
// incremental 2D approximations). The paper reports SuperFE error
// below 4%, better than original Kitsune.
func Fig10(s Scale) Table {
	t := Table{
		ID:      "fig10",
		Title:   "Relative feature extraction error vs standard definitions (Kitsune features)",
		Note:    "paper: SuperFE error < 4%, below the original Kitsune implementation's",
		Headers: []string{"Feature", "SuperFE", "OriginalKitsune"},
	}
	cfg := trace.DefaultIntrusionConfig(trace.AttackMirai)
	if s == Quick {
		cfg.BenignFlows /= 2
		cfg.AttackPkts /= 2
	}
	tr := trace.GenerateIntrusion(cfg, Seed)
	// Gather per-socket directional sample streams.
	groups := map[flowkey.FiveTuple]sampleStream{}
	for i := range tr.Packets {
		p := &tr.Packets[i]
		canon, fwd := p.Tuple.Canonical()
		x := int64(p.Size)
		if !fwd {
			x = -x
		}
		groups[canon] = append(groups[canon], struct {
			x  int64
			ts int64
		}{x, p.Timestamp})
	}
	const lambda = 1.0
	families := []struct {
		name string
		f    streaming.Func
	}{
		{"fd_mean", streaming.FDMean},
		{"fd_std", streaming.FDStd},
		{"fd_mag", streaming.FD2DMag},
		{"fd_radius", streaming.FD2DRadius},
		{"fd_cov", streaming.FD2DCov},
		{"fd_pcc", streaming.FD2DPCC},
		{"ft_percent{p50}", streaming.FPercent},
		{"f_card", streaming.FCard},
	}
	// Deterministic group order.
	keys := make([]flowkey.FiveTuple, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })

	for _, fam := range families {
		var errSFE, errOrig float64
		var n int
		for _, k := range keys {
			ss := groups[k]
			// Short streams make batch-vs-streaming comparisons
			// degenerate (a histogram quantile over 8 samples is one
			// sample); the paper's per-feature errors are computed on
			// established flows.
			if len(ss) < 32 {
				continue
			}
			exact := exactValue(fam.f, ss, lambda)
			sfe := streamingValue(fam.f, ss, lambda)
			orig := float32Value(fam.f, ss, lambda)
			if math.IsNaN(exact) {
				continue
			}
			// Error normalisation: covariance is scale-normalised by
			// the directional stddev product (its natural magnitude —
			// plain relative error diverges when two directions are
			// uncorrelated and the true value is ~0); the correlation
			// coefficient, already in [-1, 1], uses absolute error.
			scale := math.Abs(exact)
			switch fam.f {
			case streaming.FD2DCov:
				scale = covScale(ss, lambda)
			case streaming.FD2DPCC:
				scale = 1
			}
			if scale < 1e-9 {
				continue
			}
			errSFE += math.Abs(sfe-exact) / scale
			errOrig += math.Abs(orig-exact) / scale
			n++
		}
		if n == 0 {
			continue
		}
		t.AddRow(fam.name, fmtPct(errSFE/float64(n)), fmtPct(errOrig/float64(n)))
	}
	return t
}

// covScale returns the natural magnitude of a covariance value for
// the stream: the product of the two directions' decayed stddevs.
func covScale(ss sampleStream, lambda float64) float64 {
	va := exact2D(streaming.FD2DRadius, ss, lambda) // sqrt(va²+vb²)
	if va <= 0 {
		return 0
	}
	// radius ≈ the larger variance; use it as the scale proxy.
	return va
}

// Fig11 regenerates the detection-accuracy experiment: Kitsune's
// autoencoder ensemble trained on the benign prefix of each attack
// scenario's SuperFE feature stream, scored on the remainder.
func Fig11(s Scale) Table {
	t := Table{
		ID:      "fig11",
		Title:   "Kitsune detection accuracy with SuperFE feature vectors",
		Note:    "paper: accurate detection across scenarios, no degradation vs software features",
		Headers: []string{"Scenario", "Vectors", "AUC", "Accuracy", "TPR", "FPR"},
	}
	for _, attack := range []trace.AttackKind{trace.AttackMirai, trace.AttackOSScan, trace.AttackSSDPFlood} {
		cfg := trace.DefaultIntrusionConfig(attack)
		if s == Full {
			cfg.BenignFlows *= 2
			cfg.AttackPkts *= 2
		}
		tr := trace.GenerateIntrusion(cfg, Seed+int64(attack))
		m, nvec := kitsuneDetect(tr)
		t.AddRow(attack.String(), fmt.Sprintf("%d", nvec),
			fmtF(m.AUC, 3), fmtF(m.Accuracy, 3), fmtF(m.TPR, 3), fmtF(m.FPR, 3))
	}
	return t
}

// kitsuneDetect runs the full pipeline + detector on a labeled trace.
func kitsuneDetect(tr *trace.Trace) (mlsim.DetectionMetrics, int) {
	// Ground truth: label by (canonical tuple, timestamp) — the
	// vector's key and timestamp identify the originating packet.
	labelOf := map[labelKey]uint8{}
	for i := range tr.Packets {
		canon, _ := tr.Packets[i].Tuple.Canonical()
		labelOf[labelKey{canon, uint32(tr.Packets[i].Timestamp)}] = tr.Labels[i]
	}
	type scored struct {
		vec   []float64
		ts    int64
		label uint8
	}
	var samples []scored
	pol := compileStudy("Kitsune").Policy
	fe, err := core.New(core.DefaultOptions(), pol, func(v feature.Vector) {
		// The vector key is the FG (flow) tuple in packet orientation;
		// the label table is keyed canonically.
		canon, _ := v.Key.Tuple.Canonical()
		lbl, ok := labelOf[labelKey{canon, uint32(v.Timestamp)}]
		if !ok {
			return
		}
		samples = append(samples, scored{append([]float64(nil), v.Values...), v.Timestamp, lbl})
	})
	if err != nil {
		must(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].ts < samples[j].ts })

	// Train online on the benign prefix (before the attack window),
	// score everything after.
	const attackStart = int64(5e8)
	trainEnd := attackStart * 9 / 10
	rng := newRand(Seed)
	ens, err := mlsim.NewKitsuneEnsemble(pol.FeatureDim(), rng)
	if err != nil {
		must(err)
	}
	var scores []float64
	var labels []uint8
	for _, sm := range samples {
		if sm.ts < trainEnd && sm.label == 0 {
			ens.Train(sm.vec)
			continue
		}
		scores = append(scores, ens.Score(sm.vec))
		labels = append(labels, sm.label)
	}
	return mlsim.EvaluateScores(scores, labels), len(samples)
}

// labelKey identifies a packet by its canonical tuple and 32-bit
// timestamp.
type labelKey struct {
	tuple flowkey.FiveTuple
	ts    uint32
}

package nicsim

import (
	"superfe/internal/flowkey"
	"superfe/internal/policy"
	"superfe/internal/streaming"
)

// CostModel prices one MGPV cell's processing in NFP core cycles,
// given the compiled plan, the solved placement and the enabled
// optimizations. It drives the Figure 16 (core scaling) and Figure
// 17 (incremental optimizations) experiments and the throughput half
// of Figure 9.
//
// The model reflects how a Micro-C implementation actually touches
// hardware:
//
//   - ALU work is charged per reducing-function update (the feature
//     math itself);
//   - memory traffic is charged per burst: each granularity's group
//     states live in one table entry per memory level, read once and
//     written once per cell, so a (granularity, level) pair costs two
//     transactions of that level's latency — not one stall per state;
//   - divisions are charged per granularity (the normalization
//     divisions of one group's update share a divisor; per-λ
//     emission-time normalizations run on the host side of the
//     vector stream) plus any mapping-function divisions;
//   - the three §6.2 optimizations remove, respectively, the
//     NIC-side hash, the memory stalls (threads switch in 2 cycles
//     while a transaction is in flight) and the 1500-cycle divisions
//     (replaced by compares with a ~2% true-division residue).
type CostModel struct {
	cfg Config

	// Precomputed per-cell components.
	instr        float64 // ALU/compare/multiply cycles
	divs         float64 // division operations per cell
	transactions int     // memory bursts per cell
	memCycles    float64 // Σ burst × level latency (unhidden)
}

// NewCostModel precomputes the per-cell cost components from the
// plan and placement.
func NewCostModel(cfg Config, plan policy.NICPlan, pl Placement) *CostModel {
	m := &CostModel{cfg: cfg}
	divGrans := map[flowkey.Granularity]bool{}
	for _, st := range plan.Stages {
		switch st.Op.Kind {
		case policy.OpMap:
			m.instr += mapInstrCycles(st.Op.MapF)
			m.divs += mapDivs(st.Op.MapF)
		case policy.OpReduce:
			for _, rf := range st.Op.Reducers {
				m.instr += reduceInstrCycles(rf.Func)
				if reduceNeedsDiv(rf.Func, rf.Params) {
					divGrans[st.Op.Gran] = true
				}
			}
		case policy.OpSynthesize:
			m.instr += 2 // amortised per-cell share of emit-time work
		case policy.OpCollect:
			m.instr++
		}
	}
	m.divs += float64(len(divGrans))

	// Memory bursts: one read + one write per (granularity, level)
	// holding state.
	type gl struct {
		g flowkey.Granularity
		l MemLevel
	}
	seen := map[gl]bool{}
	for i, s := range plan.StateSpecs {
		k := gl{s.Gran, pl.Level[i]}
		if seen[k] {
			continue
		}
		seen[k] = true
		m.transactions += 2
		m.memCycles += 2 * float64(cfg.Memories[pl.Level[i]].LatencyCyc)
	}
	return m
}

// CyclesPerCell returns the expected core cycles to process one MGPV
// cell under the model's optimization settings.
func (m *CostModel) CyclesPerCell() float64 {
	cyc := float64(CycDispatch)
	// Group lookup hash: reused from the switch or recomputed.
	if m.cfg.Opt.ReuseSwitchHash {
		cyc += 2 // load the shipped hash
	} else {
		cyc += CycHash
	}
	cyc += m.instr
	// Memory: with threading, a transaction costs two context
	// switches plus the issue slot — the latency is hidden behind
	// other threads' compute. Without threading the core stalls for
	// the full latency.
	if m.cfg.Opt.Threading {
		cyc += float64(m.transactions) * (2*CycCtxSwitch + 2)
	} else {
		cyc += m.memCycles
	}
	// Divisions: eliminated ones become a few compares with a small
	// true-division residue for outliers and warmup (~2%, measured by
	// the IntMean counters in the streaming package tests).
	if m.cfg.Opt.DivisionElim {
		cyc += m.divs * (3*CycCompare + 0.02*CycDivision)
	} else {
		cyc += m.divs * CycDivision
	}
	return cyc
}

// CellsPerSecond returns the aggregate cell throughput with the given
// number of cores active (Figure 16's x-axis). Cores share nothing —
// the NBI distributes MGPVs per-IP so there is no cross-core state
// (§6.2 "Hierarchical memory allocation") — hence scaling is linear
// in cores; a small per-island distribution overhead (0.5%) models
// the NBI itself.
func (m *CostModel) CellsPerSecond(cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	if max := m.cfg.Cores(); cores > max {
		cores = max
	}
	perCore := m.cfg.FreqHz / m.CyclesPerCell()
	return float64(cores) * perCore * 0.995
}

// ThroughputGbps converts cell throughput to raw-traffic bandwidth:
// each cell stands for one original packet of avgPktBytes on the
// wire, so the feature path keeps up with cellsPerSec × pktBits of
// ingress traffic.
func (m *CostModel) ThroughputGbps(cores int, avgPktBytes float64) float64 {
	return m.CellsPerSecond(cores) * avgPktBytes * 8 / 1e9
}

// mapInstrCycles prices a mapping function's per-cell ALU work.
func mapInstrCycles(f policy.MapFunc) float64 {
	switch f {
	case policy.MapOne:
		return 1
	case policy.MapIPT:
		return 3 // load last ts, subtract, store
	case policy.MapSpeed:
		return 4 + CycMultiply
	case policy.MapBurst:
		return 6
	case policy.MapDirection:
		return 2
	case policy.MapIdentity:
		return 1
	}
	return 2
}

// mapDivs counts division operations a mapping function performs per
// cell.
func mapDivs(f policy.MapFunc) float64 {
	if f == policy.MapSpeed {
		return 1 // size / Δt
	}
	return 0
}

// reduceInstrCycles prices a reducing function's per-cell ALU work
// (excluding divisions and memory).
func reduceInstrCycles(f streaming.Func) float64 {
	switch f {
	case streaming.FSum, streaming.FMax, streaming.FMin:
		return 2
	case streaming.FMean:
		return 4
	case streaming.FVar, streaming.FStd:
		return 8
	case streaming.FSkew, streaming.FKurtosis:
		return 18 + 3*CycMultiply
	case streaming.FCard:
		return 10 // hash mix + clz + compare
	case streaming.FArray:
		return 3
	case streaming.FHist, streaming.FPDF, streaming.FCDF, streaming.FPercent:
		return 5
	case streaming.FMag, streaming.FRadius:
		return 10 + 2*CycMultiply
	case streaming.FCov, streaming.FPCC:
		return 12 + 3*CycMultiply
	case streaming.FDWeight, streaming.FDMean, streaming.FDStd:
		// Decay is a shift-based exponential approximation on the NFP.
		// The host computes the same factor exactly: math.Exp2's bits,
		// with 2^k built on the exponent (streaming.DecayFactor).
		return 8 + 2*CycMultiply
	case streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC:
		return 14 + 3*CycMultiply
	}
	return 4
}

// reduceNeedsDiv reports whether a reducing function's per-cell
// update contains a division: the Welford family divides by n;
// histograms divide by the bin width unless it is a power of two
// (then a shift).
func reduceNeedsDiv(f streaming.Func, p streaming.Params) bool {
	switch f {
	case streaming.FMean, streaming.FVar, streaming.FStd,
		streaming.FSkew, streaming.FKurtosis,
		streaming.FMag, streaming.FRadius, streaming.FCov, streaming.FPCC,
		streaming.FDMean, streaming.FDStd,
		streaming.FD2DMag, streaming.FD2DRadius, streaming.FD2DCov, streaming.FD2DPCC:
		return true
	case streaming.FHist, streaming.FPDF, streaming.FCDF, streaming.FPercent:
		return p.BinWidth > 0 && p.BinWidth&(p.BinWidth-1) != 0
	}
	return false
}

// NaiveCyclesPerCell prices the Figure 15 naïve baseline: the
// store-everything reducers append per cell (cheap) but every feature
// emission re-scans the whole buffered stream. Amortised per cell
// with the group's mean batched length, each sample is rescanned
// passes× before its group is emitted.
func (m *CostModel) NaiveCyclesPerCell(meanGroupLen float64) float64 {
	if meanGroupLen < 1 {
		meanGroupLen = 1
	}
	cyc := float64(CycDispatch)
	if m.cfg.Opt.ReuseSwitchHash {
		cyc += 2
	} else {
		cyc += CycHash
	}
	// Append to the buffer (EMEM, the only level big enough).
	cyc += float64(m.cfg.Memories[MemEMEM].LatencyCyc)
	// Re-scan work amortised per cell: each emission makes ~2 passes
	// over the buffered group; per cell that is 2 scans of the ALU
	// work plus the divisions the batch algorithms keep.
	passes := 2.0
	perScan := m.instr + m.divs*CycDivision/4
	cyc += passes * perScan
	// Reading the buffered samples back at emit time, amortised.
	cyc += passes * float64(m.cfg.Memories[MemEMEM].LatencyCyc) / 4
	return cyc
}

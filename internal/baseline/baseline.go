// Package baseline implements the software-based feature extractor
// SuperFE is compared against in Figure 9: the conventional
// port-mirroring architecture (§2.2) in which the switch duplicates
// every packet to a server that parses it, tracks per-group state in
// general-purpose hash maps and computes features in software.
//
// The functional output is identical to SuperFE's (same policy, same
// reducing functions) — the difference is the data path: the server
// must touch every raw packet (parse + hash + per-granularity map
// lookups) instead of receiving pre-filtered, pre-grouped MGPV
// batches. The throughput gap of Figure 9 comes from (a) the raw
// bytes crossing the mirror link versus the >80%-reduced MGPV stream
// and (b) per-packet software overhead versus the switch ASIC doing
// grouping at line rate.
package baseline

import (
	"fmt"

	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/nicsim"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// Extractor is the software-only feature extractor. It reuses the
// FE-NIC functional runtime for feature computation (the algorithms
// are the same; the paper's software baselines run the original
// applications' own extractors) but feeds it from raw packets rather
// than MGPVs: every packet is parsed, filtered, grouped and processed
// one cell at a time on the host CPU.
type Extractor struct {
	plan *policy.Plan
	rt   *nicsim.Runtime
	// stats
	pktsIn, bytesIn uint64
	mirrored        uint64
	scratch         gpv.MGPV
}

// New builds a software extractor for the policy.
func New(pol *policy.Policy, sink feature.Sink) (*Extractor, error) {
	plan, err := policy.Compile(pol)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	cfg := nicsim.DefaultConfig()
	cfg.Opt = nicsim.Optimizations{} // software: no NFP optimizations
	rt, err := nicsim.NewRuntime(cfg, plan, sink)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	e := &Extractor{plan: plan, rt: rt}
	e.scratch.Cells = make([]gpv.Cell, 1)
	e.scratch.Cells[0].Values = make([]uint32, len(plan.Switch.MetadataFields))
	return e, nil
}

// Process handles one mirrored packet end to end in software.
func (e *Extractor) Process(p *packet.Packet) bool {
	e.pktsIn++
	e.bytesIn += uint64(p.Size)
	// Port mirroring duplicates everything to the server; filtering
	// happens in software after the copy.
	e.mirrored += uint64(p.Size)
	if !e.plan.Switch.Pred.Eval(p) {
		return false
	}
	// Single-packet "batch": the software path has no aggregation.
	var fgKey flowkey.FiveTuple
	var fwd bool
	if e.plan.Switch.NeedsDirection {
		fgKey, fwd = p.Tuple.Canonical()
	} else {
		fgKey, fwd = p.Tuple, true
	}
	cgKey, _ := flowkey.KeyFor(e.plan.Switch.CG, p.Tuple)
	m := &e.scratch
	m.CG = cgKey
	m.Hash = flowkey.HashKey(cgKey)
	cell := &m.Cells[0]
	for i, f := range e.plan.Switch.MetadataFields {
		cell.Values[i] = uint32(p.Field(f))
	}
	cell.Forward = fwd
	if e.plan.Switch.CG == e.plan.Switch.FG && len(e.plan.Switch.Chain) == 1 {
		e.rt.Process(gpv.Message{MGPV: m})
		return true
	}
	// Multi-granularity: ship the FG key inline (software keeps the
	// table trivially consistent).
	cell.FGIndex = 0
	e.rt.Process(gpv.Message{FG: &gpv.FGUpdate{Index: 0, Key: fgKey}})
	e.rt.Process(gpv.Message{MGPV: m})
	return true
}

// Flush emits per-group vectors.
func (e *Extractor) Flush() { e.rt.Flush() }

// MirroredBytes returns the bytes copied over the mirror link — the
// communication overhead of the software architecture (every raw
// byte, versus SuperFE's aggregated MGPV stream).
func (e *Extractor) MirroredBytes() uint64 { return e.mirrored }

// NICStats exposes the underlying runtime counters.
func (e *Extractor) NICStats() nicsim.RuntimeStats { return e.rt.Stats() }

// ServerModel prices the software path the way the paper's testbed
// behaves: a multi-core x86 server processing mirrored raw traffic.
// Measured softirq+parse+hash+feature cost lands around a few
// hundred ns per packet per core; with c cores and perfect scaling
// the extractor saturates well below 10 Gbps for small packets —
// the "~Gbps" Figure 9 reports for the original implementations.
type ServerModel struct {
	Cores        int
	CyclesPerPkt float64 // per-packet software cycles (parse+hash+features)
	FreqHz       float64
}

// ThroughputGbps returns the sustainable raw-traffic rate.
func (m ServerModel) ThroughputGbps(avgPktBytes float64) float64 {
	pps := float64(m.Cores) * m.FreqHz / m.CyclesPerPkt
	return pps * avgPktBytes * 8 / 1e9
}

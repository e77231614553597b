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
// grouping at line rate. Because it shares no code with the router,
// the switch or the NIC, it is also the engine differentials' third
// leg.
//
//superfe:deterministic
package baseline

import (
	"fmt"

	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// Extractor is the software-only feature extractor: every mirrored
// packet is parsed, filtered and handed to an Interpreter as its
// finest key and a one-cell MGPV, so grouping and features run one
// packet at a time on the host CPU.
type Extractor struct {
	plan    *policy.Plan
	in      *Interpreter
	scratch gpv.MGPV
}

// New builds a software extractor for the policy.
func New(pol *policy.Policy, sink feature.Sink) (*Extractor, error) {
	plan, err := policy.Compile(pol)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	e := &Extractor{plan: plan, in: NewInterpreter(plan, sink, nil)}
	e.scratch.Cells = make([]gpv.Cell, 1)
	e.scratch.Cells[0].Values = make([]uint32, len(plan.Switch.MetadataFields))
	return e, nil
}

// Process handles one mirrored packet end to end in software.
func (e *Extractor) Process(p *packet.Packet) bool {
	// Port mirroring duplicates everything to the server; filtering
	// happens in software after the copy.
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
	// The FG key travels inline (software keeps the table trivially
	// consistent); a single-granularity plan does not read it.
	e.in.Process(gpv.Message{FG: &gpv.FGUpdate{Index: 0, Key: fgKey}})
	e.in.Process(gpv.Message{MGPV: m})
	return true
}

// Flush emits per-group vectors.
func (e *Extractor) Flush() { e.in.Flush() }

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

// Package trace generates the workload traffic SuperFE's evaluation
// replays (§8.1 of the paper).
//
// The paper replays three real-world traces (Table 2) with MoonGen
// and four application-specific traces for training/testing the
// behaviour detectors. Neither the captures nor the hardware
// generator are available here, so this package synthesises
// statistically equivalent workloads: generators parameterised to
// Table 2's average flow length and packet size with long-tailed
// (lognormal) flow-length distributions, and scenario generators that
// reproduce the communication patterns the four detector applications
// key on (website fingerprints, P2P bot chatter, timing covert
// channels, Mirai-style attacks). See DESIGN.md §1 for the
// substitution rationale.
//
// All generators are deterministic given a seed.
//
//superfe:deterministic
package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"superfe/internal/flowkey"
	"superfe/internal/packet"
)

// Trace is a generated workload: packets in timestamp order plus
// optional ground-truth labels (parallel to Packets; empty when the
// workload carries no labels).
type Trace struct {
	Name    string
	Packets []packet.Packet
	// Labels holds per-packet ground truth for detection workloads:
	// 0 = benign, 1 = malicious. Empty for unlabeled workloads.
	Labels []uint8
	// FlowClasses maps canonical flow tuples to a class id for
	// classification workloads (website fingerprinting). Nil when
	// unused.
	FlowClasses map[flowkey.FiveTuple]int
}

// Stats summarises a trace the way Table 2 does.
type Stats struct {
	Packets       int
	Bytes         uint64
	Flows         int
	AvgFlowLength float64 // packets per flow
	AvgPacketSize float64 // bytes per packet
	DurationNS    int64
}

// Stats computes the Table 2 summary of the trace.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Packets = len(t.Packets)
	// Flows are bidirectional conversations: both directions of a
	// 5-tuple count once (the granularity Table 2's averages refer
	// to).
	flows := make(map[flowkey.FiveTuple]int)
	var last int64
	for i := range t.Packets {
		p := &t.Packets[i]
		s.Bytes += uint64(p.Size)
		canon, _ := p.Tuple.Canonical()
		flows[canon]++
		if p.Timestamp > last {
			last = p.Timestamp
		}
	}
	s.Flows = len(flows)
	if s.Flows > 0 {
		s.AvgFlowLength = float64(s.Packets) / float64(s.Flows)
	}
	if s.Packets > 0 {
		s.AvgPacketSize = float64(s.Bytes) / float64(s.Packets)
	}
	s.DurationNS = last
	return s
}

// String renders the Table 2 row.
func (s Stats) String() string {
	return fmt.Sprintf("%d pkts, %d flows, %.1f pkts/flow, %.0f B/pkt, %.2fs",
		s.Packets, s.Flows, s.AvgFlowLength, s.AvgPacketSize, float64(s.DurationNS)/1e9)
}

// sortByTime orders packets by timestamp (stable so same-timestamp
// packets keep generation order).
func sortByTime(t *Trace) {
	if len(t.Labels) == 0 {
		slices.SortStableFunc(t.Packets, func(a, b packet.Packet) int {
			return cmp.Compare(a.Timestamp, b.Timestamp)
		})
		return
	}
	// Keep labels aligned with packets through the sort.
	idx := make([]int, len(t.Packets))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Compare(t.Packets[a].Timestamp, t.Packets[b].Timestamp)
	})
	pkts := make([]packet.Packet, len(t.Packets))
	labs := make([]uint8, len(t.Labels))
	for i, j := range idx {
		pkts[i] = t.Packets[j]
		labs[i] = t.Labels[j]
	}
	t.Packets, t.Labels = pkts, labs
}

// flowSpec drives the synthesis of one flow.
type flowSpec struct {
	tuple   flowkey.FiveTuple
	start   int64 // ns
	length  int   // packets
	meanIPT float64
	sizes   func(r *rand.Rand) uint32
	bidir   bool // emit ~40% of packets in the reverse direction
}

// emitFlow appends the flow's packets to the trace.
func emitFlow(t *Trace, r *rand.Rand, f flowSpec, label uint8, labeled bool) {
	ts := f.start
	for i := 0; i < f.length; i++ {
		tuple := f.tuple
		if f.bidir && r.Float64() < 0.4 {
			tuple = tuple.Reverse()
		}
		p := packet.Packet{
			Tuple:     tuple,
			Timestamp: ts,
			Size:      f.sizes(r),
			TTL:       64,
		}
		if tuple.Proto == flowkey.ProtoTCP {
			switch {
			case i == 0:
				p.Flags = packet.FlagSYN
			case i == f.length-1:
				p.Flags = packet.FlagFIN | packet.FlagACK
			default:
				p.Flags = packet.FlagACK
			}
		}
		t.Packets = append(t.Packets, p)
		if labeled {
			t.Labels = append(t.Labels, label)
		}
		// Exponential inter-packet times around the mean.
		ts += int64(r.ExpFloat64() * f.meanIPT)
	}
}

// lognormalLength draws a flow length with the long-tail shape of
// real traffic: lognormal with σ controlling the tail, scaled so the
// distribution mean matches the target.
func lognormalLength(r *rand.Rand, mean float64, sigma float64) int {
	// mean of lognormal = exp(mu + sigma²/2) → mu = ln(mean) - sigma²/2
	mu := math.Log(mean) - sigma*sigma/2
	n := int(math.Round(math.Exp(r.NormFloat64()*sigma + mu)))
	if n < 1 {
		n = 1
	}
	return n
}

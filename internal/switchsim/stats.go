package switchsim

import (
	"fmt"
	"strings"

	"superfe/internal/gpv"
	"superfe/internal/obs"
)

// Stats aggregates the switch counters the experiments read.
type Stats struct {
	PktsIn       uint64
	BytesIn      uint64
	PktsFiltered uint64 // dropped by the policy filter

	GroupsAdmitted uint64
	LongBufGrants  uint64

	MsgsOut   uint64
	BytesOut  uint64
	CellsOut  uint64
	FGUpdates uint64
	// FGOverwrites counts FG table collisions that replaced a live
	// key; cells still batched under the old index are misattributed
	// on the NIC (an approximation source bounded by Figure 10).
	FGOverwrites uint64

	Evictions   [4]uint64 // indexed by gpv.EvictReason
	AgingChecks uint64

	// ShedCells counts cells dropped by degraded-mode long-buffer
	// shedding (graceful degradation under sustained NIC pressure).
	ShedCells uint64

	// CellSaturations counts staged cells whose metadata values would
	// not fit their modeled hardware register widths (see
	// CellRegisterBits). The simulated values stay exact — this is
	// the ground-truth counter planprove's cell-register proofs are
	// cross-checked against.
	CellSaturations uint64
	// FGIndexClips counts FG table indices past MaxWireFGIndex: the
	// wire cell header carries 15 index bits, so these alias on the
	// NIC. Only reachable with FGTableSize > 32768 (planprove rejects
	// such configurations statically).
	FGIndexClips uint64
}

// Rows declares every counter once: its series and the word it lives
// in. Add, the shard registry's schema and the batch-boundary publish
// are all this list, so a new counter is a field, a row here and its
// increment.
func (s *Stats) Rows() []obs.Row {
	rows := []obs.Row{
		{Name: "superfe_switch_pkts_in_total", Help: "packets received by the FE-Switch", Word: &s.PktsIn},
		{Name: "superfe_switch_bytes_in_total", Help: "raw traffic bytes received by the FE-Switch", Word: &s.BytesIn},
		{Name: "superfe_switch_pkts_filtered_total", Help: "packets dropped by the policy filter", Word: &s.PktsFiltered},
		{Name: "superfe_switch_groups_admitted_total", Help: "CG groups admitted to the MGPV cache", Word: &s.GroupsAdmitted},
		{Name: "superfe_switch_long_buf_grants_total", Help: "long buffers granted to long flows", Word: &s.LongBufGrants},
		{Name: "superfe_switch_msgs_out_total", Help: "messages emitted on the switch-to-NIC channel", Word: &s.MsgsOut},
		{Name: "superfe_switch_bytes_out_total", Help: "encoded bytes emitted on the switch-to-NIC channel", Word: &s.BytesOut},
		{Name: "superfe_switch_cells_out_total", Help: "MGPV cells evicted to the NIC", Word: &s.CellsOut},
		{Name: "superfe_switch_fg_updates_total", Help: "FG key table synchronisation messages", Word: &s.FGUpdates},
		{Name: "superfe_switch_fg_overwrites_total", Help: "FG table collisions that replaced a live key", Word: &s.FGOverwrites},
	}
	for r := range s.Evictions {
		rows = append(rows, obs.Row{Name: "superfe_switch_evictions_total", Help: "MGPV evictions by cause",
			Labels: []obs.LabelPair{obs.L("reason", gpv.EvictReason(r).String())}, Word: &s.Evictions[r]})
	}
	return append(rows,
		obs.Row{Name: "superfe_switch_aging_checks_total", Help: "cache entries visited by the recirculated aging scan", Word: &s.AgingChecks},
		obs.Row{Name: "superfe_switch_cells_shed_total", Help: "cells dropped by degraded-mode long-buffer shedding", Word: &s.ShedCells},
		obs.Row{Name: "superfe_switch_cell_saturations_total", Help: "staged cell values wider than their modelled hardware register", Word: &s.CellSaturations},
		obs.Row{Name: "superfe_switch_fg_index_clips_total", Help: "FG table indices past the 15 bits the wire cell header carries", Word: &s.FGIndexClips},
	)
}

// Add accumulates another switch's counters — merging per-shard
// stats for the parallel engine. Conservation quantities (packets,
// bytes, cells) sum exactly to the sequential totals on the same
// trace; collision-dependent counters (evictions, FG overwrites,
// groups admitted) depend on the cache partitioning.
func (s *Stats) Add(o Stats) {
	obs.AddRows(s.Rows(), o.Rows())
}

// AggregationRatio is the Figure 12 metric: bytes sent to the NIC
// divided by raw bytes received. Lower is better; the paper reports
// >80% reduction (ratio < 0.2).
func (s Stats) AggregationRatio() float64 {
	if s.BytesIn == 0 {
		return 0
	}
	return float64(s.BytesOut) / float64(s.BytesIn)
}

// MessageRatio is the companion rate metric: messages out per packet
// in ("receiving rate" reduction in Figure 12).
func (s Stats) MessageRatio() float64 {
	if s.PktsIn == 0 {
		return 0
	}
	return float64(s.MsgsOut) / float64(s.PktsIn)
}

// String renders a one-line summary. Eviction causes are labelled
// from gpv.EvictReason.String so the rendering tracks the enum — the
// same labels the telemetry registry uses for its Prometheus series.
func (s Stats) String() string {
	var ev strings.Builder
	for i, n := range s.Evictions {
		if i > 0 {
			ev.WriteByte(' ')
		}
		fmt.Fprintf(&ev, "%s=%d", gpv.EvictReason(i), n)
	}
	out := fmt.Sprintf("in=%dpkt/%dB filtered=%d out=%dmsg/%dB cells=%d agg=%.3f evict[%s] fgupd=%d fgow=%d",
		s.PktsIn, s.BytesIn, s.PktsFiltered, s.MsgsOut, s.BytesOut, s.CellsOut, s.AggregationRatio(),
		ev.String(), s.FGUpdates, s.FGOverwrites)
	if s.ShedCells > 0 {
		out += fmt.Sprintf(" shed=%d", s.ShedCells)
	}
	if s.CellSaturations > 0 {
		out += fmt.Sprintf(" cellsat=%d", s.CellSaturations)
	}
	if s.FGIndexClips > 0 {
		out += fmt.Sprintf(" fgclip=%d", s.FGIndexClips)
	}
	return out
}

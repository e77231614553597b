package obs

import (
	"superfe/internal/faults"
	"superfe/internal/gpv"
	"superfe/internal/streaming"
)

// SwitchObs is the FE-Switch's instrument panel: handles into the
// owning shard's registry plus the shared lifecycle tracer. All
// fields are pre-registered; the switch's hot path only ever touches
// fixed handles.
type SwitchObs struct {
	PktsIn         Counter
	BytesIn        Counter
	PktsFiltered   Counter
	GroupsAdmitted Counter
	LongBufGrants  Counter
	MsgsOut        Counter
	BytesOut       Counter
	CellsOut       Counter
	FGUpdates      Counter
	FGOverwrites   Counter
	// Evictions is indexed by gpv.EvictReason; labels are rendered
	// from EvictReason.String.
	Evictions [4]Counter

	// CellsShed counts cells dropped by degraded-mode shedding —
	// long-buffer work abandoned to keep short-buffer extraction
	// alive under sustained NIC pressure.
	CellsShed Counter

	// OccupiedSlots and LongGranted track MGPV cache occupancy
	// (instantaneous; summed across shards at snapshot).
	OccupiedSlots Gauge
	LongGranted   Gauge

	// CellsPerMsg is the per-stage distribution of MGPV batch sizes —
	// the per-message aggregation the switch achieves.
	CellsPerMsg Histogram

	Tracer *Ring[Event]
}

// NICObs is the FE-NIC's instrument panel. GroupsLive and
// DRAMEntries are gauges (instantaneous state sizes), everything
// else is a monotonic counter — mirroring the gauge-vs-counter split
// documented on nicsim.RuntimeStats.
type NICObs struct {
	Msgs      Counter
	MGPVs     Counter
	FGUpdates Counter
	Cells     Counter
	UnknownFG Counter
	Vectors   Counter

	GroupsLive  Gauge
	DRAMEntries Gauge

	// CyclesPerMGPV distributes the modelled NFP core cycles per MGPV
	// (the nicsim cost model's CyclesPerCell × batch size).
	CyclesPerMGPV Histogram
	// EmitLatency distributes vector emit latency in logical ticks:
	// NIC cells processed between a group's first cell and its vector
	// emission.
	EmitLatency Histogram

	Tracer *Ring[Event]
}

// EngineObs is the fault-injection and graceful-degradation panel:
// what the engine injected, what the delivery path survived, and
// whether the shard is currently shedding long-buffer work. Series
// are registered unconditionally (zero when faults are disabled) so
// the registry schema stays identical across shards and runs.
type EngineObs struct {
	// FaultsInjected is indexed by faults.Kind; labels are rendered
	// from Kind.String — the same convention as SwitchObs.Evictions.
	FaultsInjected [faults.NumKinds]Counter
	// FramesQuarantined counts frames rejected at wire decode or
	// key-hash integrity check instead of poisoning NIC state.
	FramesQuarantined Counter
	// DeliverRetries / DeliverRetryDrops count the bounded
	// retry-with-backoff loop on island-stalled deliveries.
	DeliverRetries    Counter
	DeliverRetryDrops Counter
	// DegradedTransitions counts degraded-mode enter+exit events;
	// DegradedMode is the instantaneous state (0/1 per shard, summed
	// across shards at snapshot into "shards currently degraded").
	DegradedTransitions Counter
	DegradedMode        Gauge
}

// RingObs is the router→shard SPSC-ring instrument panel: the
// backpressure evidence the PR 6 hot path was blind to. The in-ring
// handles are wired to the shard's input ring; FreeStarvation is the
// recycle ring's consumer-park count (the router waiting for a free
// batch — the whole pipeline stalled on the shard). Registered
// unconditionally so the per-shard registry schemas stay identical
// (an inline engine has no rings and simply leaves them at zero).
type RingObs struct {
	// InOccupancyHW is the high-watermark occupancy of the input ring
	// (per-shard gauge; summed across shards at snapshot like the
	// other gauges).
	InOccupancyHW Gauge
	// Park counters: full episodes of blocking on the wake channel.
	ProdParks Counter
	ConsParks Counter
	// Spin counters: slow-path entries that burned the poll budget
	// (parked or not) — the leading edge of pressure.
	ProdSpins Counter
	ConsSpins Counter
	// Wake counters: tokens handed to a parked peer.
	ProdWakes Counter
	ConsWakes Counter
	// FreeStarvation: router parks waiting for a recycled batch.
	FreeStarvation Counter
}

// Pipeline bundles one engine shard's telemetry: a registry, the
// switch, NIC, engine and ring panels publishing into it, the shard's
// lifecycle tracer and its batch-span ring.
type Pipeline struct {
	Registry *Registry
	Switch   *SwitchObs
	NIC      *NICObs
	Engine   *EngineObs
	Ring     *RingObs
	Tracer   *Ring[Event]
	Spans    *Ring[BatchSpan]
}

// Geometric bucket edges for the per-stage histograms, derived with
// the streaming package's variable-bin-width machinery (§6.1): fine
// resolution near zero where batch sizes and latencies concentrate, a
// long tail still covered.
var (
	cellsEdges   = streaming.GeometricEdges(1, 2, 8)   // 1, 3, 7, ..., 255 cells
	cyclesEdges  = streaming.GeometricEdges(64, 2, 12) // 64 .. ~256k cycles
	latencyEdges = streaming.GeometricEdges(16, 2, 14) // 16 .. ~256k ticks
)

// NewPipeline builds one shard's telemetry with every series
// registered in a fixed order — all shards therefore share one
// schema, which is what lets MergeSnapshots line their flat value
// arrays up. Returns nil when o.Enabled is false.
//
//superfe:coldpath
func NewPipeline(o Options, shard int) *Pipeline {
	if !o.Enabled {
		return nil
	}
	r := NewRegistry()
	tr := NewRing[Event](shard, o.TraceSampleEvery, traceRingSize)
	sw := &SwitchObs{
		PktsIn:         r.Counter("superfe_switch_pkts_in_total", "packets received by the FE-Switch"),
		BytesIn:        r.Counter("superfe_switch_bytes_in_total", "raw traffic bytes received by the FE-Switch"),
		PktsFiltered:   r.Counter("superfe_switch_pkts_filtered_total", "packets dropped by the policy filter"),
		GroupsAdmitted: r.Counter("superfe_switch_groups_admitted_total", "CG groups admitted to the MGPV cache"),
		LongBufGrants:  r.Counter("superfe_switch_long_buf_grants_total", "long buffers granted to long flows"),
		MsgsOut:        r.Counter("superfe_switch_msgs_out_total", "messages emitted on the switch-to-NIC channel"),
		BytesOut:       r.Counter("superfe_switch_bytes_out_total", "encoded bytes emitted on the switch-to-NIC channel"),
		CellsOut:       r.Counter("superfe_switch_cells_out_total", "MGPV cells evicted to the NIC"),
		FGUpdates:      r.Counter("superfe_switch_fg_updates_total", "FG key table synchronisation messages"),
		FGOverwrites:   r.Counter("superfe_switch_fg_overwrites_total", "FG table collisions that replaced a live key"),
		OccupiedSlots:  r.Gauge("superfe_switch_occupied_slots", "CG cache slots currently occupied"),
		LongGranted:    r.Gauge("superfe_switch_long_bufs_granted", "long buffers currently granted"),
		CellsPerMsg:    r.Histogram("superfe_switch_cells_per_msg", "cells batched per evicted MGPV message", cellsEdges),
		Tracer:         tr,
	}
	for reason := range sw.Evictions {
		sw.Evictions[reason] = r.Counter("superfe_switch_evictions_total",
			"MGPV evictions by cause", L("reason", gpv.EvictReason(reason).String()))
	}
	sw.CellsShed = r.Counter("superfe_switch_cells_shed_total",
		"cells dropped by degraded-mode long-buffer shedding")
	nic := &NICObs{
		Msgs:          r.Counter("superfe_nic_msgs_total", "messages consumed from the switch-to-NIC channel"),
		MGPVs:         r.Counter("superfe_nic_mgpvs_total", "MGPV messages merged into NIC group state"),
		FGUpdates:     r.Counter("superfe_nic_fg_updates_total", "FG key table updates applied"),
		Cells:         r.Counter("superfe_nic_cells_total", "MGPV cells processed by the NIC programs"),
		UnknownFG:     r.Counter("superfe_nic_unknown_fg_total", "cells dropped for an unsynced FG index"),
		Vectors:       r.Counter("superfe_nic_vectors_total", "feature vectors emitted"),
		GroupsLive:    r.Gauge("superfe_nic_groups_live", "live per-granularity group-state entries"),
		DRAMEntries:   r.Gauge("superfe_nic_dram_entries", "group-table entries overflowed past the fixed chain into DRAM"),
		CyclesPerMGPV: r.Histogram("superfe_nic_cycles_per_mgpv", "modelled NFP core cycles per MGPV (cost model x batch size)", cyclesEdges),
		EmitLatency:   r.Histogram("superfe_nic_emit_latency_ticks", "logical ticks (NIC cells) between group admission and vector emit", latencyEdges),
		Tracer:        tr,
	}
	eng := &EngineObs{
		FramesQuarantined: r.Counter("superfe_frames_quarantined_total",
			"frames rejected at wire decode or key-hash integrity check"),
		DeliverRetries: r.Counter("superfe_deliver_retries_total",
			"delivery re-attempts after island stalls"),
		DeliverRetryDrops: r.Counter("superfe_deliver_retry_drops_total",
			"frames shed after exhausting the deliver retry budget"),
		DegradedTransitions: r.Counter("superfe_degraded_mode_transitions_total",
			"degraded-mode enter and exit events"),
		DegradedMode: r.Gauge("superfe_engine_degraded_mode",
			"shards currently in degraded (long-buffer shedding) mode"),
	}
	for k := range eng.FaultsInjected {
		eng.FaultsInjected[k] = r.Counter("superfe_faults_injected_total",
			"injected faults by kind", L("kind", faults.Kind(k).String()))
	}
	ring := &RingObs{
		InOccupancyHW: r.Gauge("superfe_ring_in_occupancy_highwater",
			"high-watermark occupancy of the shard input ring (batches; summed across shards at snapshot)"),
		ProdParks: r.Counter("superfe_ring_prod_parks_total",
			"producer park episodes on the shard input ring (router blocked on a full ring)"),
		ConsParks: r.Counter("superfe_ring_cons_parks_total",
			"consumer park episodes on the shard input ring (shard idle on an empty ring)"),
		ProdSpins: r.Counter("superfe_ring_prod_spin_episodes_total",
			"producer slow-path entries that exhausted the spin budget"),
		ConsSpins: r.Counter("superfe_ring_cons_spin_episodes_total",
			"consumer slow-path entries that exhausted the spin budget"),
		ProdWakes: r.Counter("superfe_ring_prod_wakes_total",
			"wake tokens handed to a parked producer"),
		ConsWakes: r.Counter("superfe_ring_cons_wakes_total",
			"wake tokens handed to a parked consumer"),
		FreeStarvation: r.Counter("superfe_ring_free_starvation_total",
			"router park episodes waiting for a recycled batch on the free ring"),
	}
	r.Seal()
	return &Pipeline{
		Registry: r, Switch: sw, NIC: nic, Engine: eng, Ring: ring, Tracer: tr,
		Spans: NewRing[BatchSpan](shard, o.SpanSampleEvery, spanRingSize),
	}
}

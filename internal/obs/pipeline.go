package obs

// RingObs is the router→shard SPSC-ring instrument panel: the
// backpressure evidence the hot path is otherwise blind to, wired to
// the shard's one ring. A producer park is the router waiting for the
// shard to release a batch — the whole pipeline stalled on the shard.
// Registered unconditionally so the per-shard registry schemas stay
// identical (an inline engine has no ring and simply leaves them at
// zero).
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
}

// Pipeline bundles one engine shard's telemetry: the registry every
// stage of the shard registers its own series into (Bind for the
// counters a stage already keeps as plain words, Gauge and Histogram
// for the rest), the ring panel, the shard's lifecycle tracer and its
// batch-span ring.
type Pipeline struct {
	Registry *Registry
	Ring     *RingObs
	Tracer   *Ring[Event]
	Spans    *Ring[BatchSpan]
}

// Trace sampling rates, each rounded up to a power of two by NewRing:
// 1-in-traceSampleEvery CG flow groups are traced into a shard's
// lifecycle ring, and 1-in-spanSampleEvery columnar batches (keyed by
// the first row's CG hash) into its span ring.
const (
	traceSampleEvery = 64
	spanSampleEvery  = 16
)

// NewPipeline builds one shard's telemetry with the ring panel
// registered and the registry still open: the shard's stages register
// their series in their constructors and the owner seals it once the
// shard is built. Every shard runs the same constructors in the same
// order and therefore ends with one schema, which is what lets
// MergeSnapshots line their flat value arrays up. Returns nil when
// o.Enabled is false.
//
//superfe:coldpath
func NewPipeline(o Options, shard int) *Pipeline {
	if !o.Enabled {
		return nil
	}
	r := NewRegistry()
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
	}
	return &Pipeline{
		Registry: r, Ring: ring,
		Tracer: NewRing[Event](shard, traceSampleEvery, traceRingSize),
		Spans:  NewRing[BatchSpan](shard, spanSampleEvery, spanRingSize),
	}
}

// Package obs is SuperFE's telemetry subsystem: live, structured
// observability for the switch+NIC pipeline, the way Kugelblitz makes
// pipeline cost observable during design-space exploration. It has
// four cooperating pieces:
//
//   - a zero-allocation metrics Registry: Counter/Gauge/Histogram
//     handles pre-registered at deployment time and backed by one flat
//     array of atomically-updated words, one Registry instance per
//     shard, merged lock-free on scrape (registry.go);
//
//   - logical-clock interval snapshots: every N packets — never wall
//     time, the simulators are //superfe:deterministic — a Recorder
//     captures a delta Snapshot, yielding time-series of aggregation
//     ratio, eviction-reason mix, MGPV occupancy, DRAM-overflow
//     entries and per-shard packet skew (snapshot.go);
//
//   - a sampled flow-lifecycle tracer: a fixed-size ring buffer of
//     admit → cell-append → evict(reason) → NIC-merge → vector-emit
//     events for 1-in-K sampled CG flow groups, reconstructable into
//     per-flow timelines (flowtrace.go);
//
//   - exposition: Prometheus text format, a JSON dump, a CSV
//     time-series writer for offline plotting, and an HTTP handler
//     served from cmd/superfe's -metrics-addr flag (prom.go, http.go).
//
// The hot-path surface (handle updates, tracer records, Recorder
// ticks) is //superfe:hotpath-clean: fixed arrays, no maps, no
// closures, no per-packet allocation. Everything that allocates —
// registration, snapshot capture, exposition — is an amortized or
// offline path.
//
//superfe:deterministic
package obs

// Options configures the telemetry attached to one engine.
type Options struct {
	// Enabled turns instrumentation on. The zero value keeps every
	// hook nil so the pipeline runs exactly as before.
	Enabled bool
	// SnapshotInterval is the logical-clock snapshot period in
	// packets; 0 disables the interval series (scrapes still work).
	SnapshotInterval uint64
	// TraceSampleEvery samples 1-in-K CG flow groups into the
	// lifecycle tracer (rounded up to a power of two); 0 disables the
	// tracer, 1 traces every group.
	TraceSampleEvery int
	// TraceRingSize is the tracer ring capacity in events (rounded up
	// to a power of two).
	TraceRingSize int
	// SpanSampleEvery samples 1-in-K columnar batches into the
	// batch-span ring, keyed by the first row's CG hash (rounded up to
	// a power of two); 0 disables span tracing, 1 spans every batch.
	SpanSampleEvery int
	// SpanRingSize is the per-shard span ring capacity (rounded up to
	// a power of two).
	SpanRingSize int
}

// DefaultOptions returns the default telemetry sizing: snapshots
// every 64Ki packets, 1-in-64 flow groups traced into a 4096-event
// ring, 1-in-16 batches spanned into a 1024-span ring. Enabled is
// left false; callers opt in.
func DefaultOptions() Options {
	return Options{
		SnapshotInterval: 1 << 16,
		TraceSampleEvery: 64,
		TraceRingSize:    4096,
		SpanSampleEvery:  16,
		SpanRingSize:     1024,
	}
}

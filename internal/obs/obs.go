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
//     ratio, eviction-reason mix, MGPV occupancy, live NIC groups
//     and per-shard packet skew (snapshot.go);
//
//   - one event ring (ring.go) sampled by the CG hash the pipeline
//     already carries, one Event record and EventKind enum, one
//     (Shard, Seq) merge — and three views over them: per-flow
//     lifecycle timelines (admit → cell-append → evict(reason) →
//     NIC-merge → vector-emit), the always-on flight rings' anomaly
//     triggers and dump (event.go), and batch spans (span.go);
//
//   - exposition: Prometheus text format, a JSON dump, a CSV
//     time-series writer for offline plotting, and an HTTP handler
//     served from cmd/superfe's -metrics-addr flag (prom.go, http.go).
//
// The hot-path surface (handle updates, ring records, Recorder
// ticks) is //superfe:hotpath-clean: fixed arrays, no maps, no
// closures, no per-packet allocation. Everything that allocates —
// registration, snapshot capture, exposition — is an amortized or
// offline path.
//
//superfe:deterministic
package obs

// Options configures the telemetry attached to one engine. The
// sampling rates and the snapshot period are fixed where they are
// read: traceSampleEvery and spanSampleEvery in NewPipeline, the
// snapshot interval in the engine that drives the Recorder.
type Options struct {
	// Enabled turns instrumentation on. The zero value keeps every
	// hook nil so the pipeline runs exactly as before.
	Enabled bool
}

// DefaultOptions returns the default telemetry options: off, so
// callers opt in by setting Enabled.
func DefaultOptions() Options { return Options{} }

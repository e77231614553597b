// Admin surface of the engine: the always-on flight recorder, the
// health model derived from the graceful-degradation pressure
// controller, anomaly pend/materialise with dump files, the /status,
// /spans and /flightrecorder caches, and the obs.Source adapter.
//
// Concurrency contract: everything here except pendAnomaly, Status,
// ObsSpans, FlightDump and ObsScrape runs on the router goroutine (the
// one calling Process/Flush). The caches are served to the HTTP
// goroutine from behind adminMu and refreshed at barriers — interval
// snapshots, anomalies, Drain, Flush — with health and clock overlaid
// live from atomics, so degraded-mode transitions are visible while
// the replay runs even though the counters are only exact as of the
// last barrier.
package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"superfe/internal/obs"
)

// FlightRecConfig configures the always-on flight recorder.
type FlightRecConfig struct {
	// Disable turns the recorder off. It is on by default — even with
	// telemetry disabled — because a flight recorder that has to be
	// enabled before the incident is a log, not a flight recorder.
	Disable bool
	// Dir, when non-empty, receives anomaly dump files named
	// flightrec_<ordinal>_<reason>.json, pruned to the Retain newest.
	Dir string
	// Retain bounds the dump files kept in Dir (<= 0 selects 8).
	Retain int
	// Tuning sizes the event ring and the anomaly triggers; the zero
	// value selects the obs defaults.
	Tuning obs.FlightRecOptions
}

// frDumpRetain is the default anomaly-dump retention bound.
const frDumpRetain = 8

// pendAnomaly parks an anomaly for the router, first-wins: triggers
// fire on shard goroutines (quarantine spikes, degraded entry) or
// inside a blocked router push (sustained ring-full), and neither
// place can run a barrier. Coalescing concurrent anomalies to one is
// fine — the dump captures the full merged state anyway, and the
// per-recorder cooldown bounds the pend rate.
func (e *Engine) pendAnomaly(a obs.Anomaly) {
	cp := a
	e.frPend.CompareAndSwap(nil, &cp)
}

// materializePending turns a pended anomaly into counters, a dump
// file and the FRDumped marker. Must run quiesced on the router; the
// marker is recorded after the capture so each dump carries only the
// markers of previous dumps.
func (e *Engine) materializePending() {
	a := e.frPend.Swap(nil)
	if a == nil {
		return
	}
	e.anomalies++
	e.lastAnomaly = a.Reason
	e.frDumps++
	d := e.buildDump(a.Reason, a.Clock, a.Shard)
	if fc := e.opts.FlightRec; fc.Dir != "" {
		if err := writeFRDumpFile(fc.Dir, fc.Retain, e.frDumps, a.Reason, d); err != nil && e.dumpErr == nil {
			e.dumpErr = fmt.Errorf("core: flight-recorder dump: %w", err)
		}
	}
	e.fr.Record(obs.FRDumped, a.Clock, int64(e.frDumps))
}

// buildDump merges every shard's event ring plus the router's into
// one dump. Quiesced router goroutine only.
func (e *Engine) buildDump(reason string, clock uint64, shard int32) *obs.FRDump {
	recs := make([]*obs.FlightRecorder, 0, len(e.shards)+1)
	for _, sh := range e.shards {
		recs = append(recs, sh.fe.fr)
	}
	recs = append(recs, e.fr)
	return &obs.FRDump{
		Reason: reason,
		Clock:  clock,
		Shard:  shard,
		Health: e.healthNow(),
		Events: obs.MergeFREvents(recs...),
	}
}

// healthNow is the merged live health: the max over shard states
// (atomics, safe from any goroutine).
func (e *Engine) healthNow() obs.Health {
	h := obs.HealthHealthy
	for _, sh := range e.shards {
		if sh2 := obs.Health(sh.fe.health.Load()); sh2 > h {
			h = sh2
		}
	}
	return h
}

// refreshAdmin rebuilds the admin caches. Quiesced router goroutine
// only.
func (e *Engine) refreshAdmin() {
	st := e.buildStatus()
	var spans []obs.BatchSpan
	if e.obsReg != nil {
		spans = e.mergedSpans()
	}
	var d *obs.FRDump
	if e.fr != nil {
		d = e.buildDump("on-demand", e.pkts, -1)
	}
	e.adminMu.Lock()
	e.status, e.spanCache, e.frCache = st, spans, d
	e.adminMu.Unlock()
}

// buildStatus assembles the merged /status report from the quiesced
// shard counters; Status overlays the health fields live.
func (e *Engine) buildStatus() obs.StatusReport {
	st := obs.StatusReport{
		Workers:     len(e.shards),
		Policy:      e.plan.Policy.Name(),
		Clock:       e.pkts,
		Anomalies:   e.anomalies,
		LastAnomaly: e.lastAnomaly,
		Shards:      make([]obs.ShardStatus, 0, len(e.shards)),
	}
	for i, sh := range e.shards {
		fe := sh.fe
		sw := fe.sw.Stats()
		ns := fe.nic.Stats()
		fs := fe.inj.Stats()
		st.Shards = append(st.Shards, obs.ShardStatus{
			Shard:               i,
			Pkts:                sw.PktsIn,
			Quarantined:         fs.Quarantined,
			Retries:             fs.Retries,
			RetryDrops:          fs.RetryDrops,
			ShedCells:           sw.ShedCells,
			EMEMDrops:           ns.EMEMDrops,
			DegradedTransitions: fs.DegradedTransitions,
			FREvents:            fe.fr.Seq(),
		})
	}
	return st
}

// mergedSpans merges the quiesced shard span rings in (Shard, Batch)
// order.
func (e *Engine) mergedSpans() []obs.BatchSpan {
	rings := make([]*obs.SpanRing, 0, len(e.shards))
	for _, sh := range e.shards {
		rings = append(rings, sh.spans)
	}
	return obs.MergeSpans(rings...)
}

// Status returns the merged health report: counters exact at the last
// barrier, health and clock overlaid live. Safe from any goroutine.
func (e *Engine) Status() *obs.StatusReport {
	e.adminMu.Lock()
	st := e.status
	st.Shards = append([]obs.ShardStatus(nil), st.Shards...)
	shards := e.shards
	e.adminMu.Unlock()
	st.Clock = e.pubPkts.Load()
	worst := obs.HealthHealthy
	degraded := 0
	for i, sh := range shards {
		h := obs.Health(sh.fe.health.Load())
		if h > worst {
			worst = h
		}
		if h >= obs.HealthDegraded {
			degraded++
		}
		if i < len(st.Shards) {
			st.Shards[i].Health = h.String()
		}
	}
	st.Health = worst.String()
	st.DegradedShards = degraded
	return &st
}

// ObsSpans returns the merged batch spans as of the last barrier.
// Safe from any goroutine; the slice is immutable once cached.
func (e *Engine) ObsSpans() []obs.BatchSpan {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	return e.spanCache
}

// FlightDump returns the merged flight-recorder dump as of the last
// barrier (nil when the recorder is disabled). Safe from any
// goroutine; the dump is immutable once cached.
func (e *Engine) FlightDump() *obs.FRDump {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	return e.frCache
}

// ObsScrape merges a live snapshot of every shard's registry plus the
// router's, without quiescing — every value is read with an atomic
// load, so it is safe from any goroutine (the HTTP endpoint) while the
// pipeline runs, at the cost of a slightly torn cross-shard cut. Nil
// when telemetry is disabled.
func (e *Engine) ObsScrape() *obs.Snapshot {
	if e.obsReg == nil {
		return nil
	}
	return e.mergedSnapshot()
}

// ObsSeries returns the barrier-quiesced interval time-series (empty
// when snapshots are disabled).
func (e *Engine) ObsSeries() *obs.Series { return e.rec.Series() }

// ObsTimelines reconstructs sampled flow-lifecycle timelines across
// all shard tracers. Establishes a Drain barrier first: the tracer
// rings are single-writer per shard and only read at quiescence.
// Router-goroutine only.
func (e *Engine) ObsTimelines() []obs.Timeline {
	if e.obsReg == nil {
		return nil
	}
	e.quiesce()
	tracers := make([]*obs.FlowTracer, 0, len(e.shards))
	for _, sh := range e.shards {
		if p := sh.fe.obs; p != nil && p.Tracer != nil {
			tracers = append(tracers, p.Tracer)
		}
	}
	return obs.Timelines(tracers...)
}

// ObsSource adapts the engine to the obs HTTP handler and dump
// writers: Scrape is live and lock-free, Series and Timelines are
// exact at quiescence, Status/Spans/FlightRec serve the barrier-
// refreshed admin caches (with live health/clock overlays). Endpoints
// for disabled facilities stay nil.
func (e *Engine) ObsSource() obs.Source {
	src := obs.Source{Scrape: e.ObsScrape, Status: e.Status}
	if e.rec != nil {
		src.Series = e.ObsSeries
	}
	if e.obsReg != nil && e.opts.Obs.TraceSampleEvery > 0 {
		src.Timelines = e.ObsTimelines
	}
	if e.obsReg != nil && e.opts.Obs.SpanSampleEvery > 0 {
		src.Spans = e.ObsSpans
	}
	if e.fr != nil {
		src.FlightRec = e.FlightDump
	}
	return src
}

// writeFRDumpFile writes one anomaly dump into dir and prunes old
// dumps down to retain. Ordinal-numbered names sort lexicographically
// in dump order (the same scheme as the obs.Profiler files), so
// retention and fixed-seed reproducibility need no timestamps.
func writeFRDumpFile(dir string, retain, ordinal int, reason string, d *obs.FRDump) error {
	if retain <= 0 {
		retain = frDumpRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := obs.WriteFlightRecJSON(&buf, d); err != nil {
		return err
	}
	name := fmt.Sprintf("flightrec_%06d_%s.json", ordinal, reason)
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		return err
	}
	return pruneFRDumps(dir, retain)
}

// pruneFRDumps keeps the newest retain dump files.
func pruneFRDumps(dir string, retain int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "flightrec_") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for len(names) > retain {
		if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
			return err
		}
		names = names[1:]
	}
	return nil
}

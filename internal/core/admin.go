// Admin surface of the engine: the always-on flight recorder, the
// health model derived from the graceful-degradation pressure
// controller, anomaly pend/materialise with dump files, the one cache
// every admin view is served from, and the obs.Source adapter.
//
// Concurrency contract: pendAnomaly and the Obs*/Status/FlightDump
// accessors are safe from any goroutine; everything else runs on the
// router side (whichever goroutine has the turn to call Process/Flush).
// The cache is served to the HTTP goroutine from behind adminMu and
// refreshed at barriers — interval snapshots, anomalies, Drain, Flush —
// with health and clock overlaid live from atomics, so degraded-mode
// transitions are visible while the replay runs even though everything
// else is only exact as of the last barrier.
package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"superfe/internal/gpv"
	"superfe/internal/obs"
)

// FlightRecConfig configures the always-on flight recorder.
type FlightRecConfig struct {
	// Disable turns the recorder off. It is on by default — even with
	// telemetry disabled — because a flight recorder that has to be
	// enabled before the incident is a log, not a flight recorder.
	Disable bool
	// Dir, when non-empty, receives anomaly dump files named
	// flightrec_<ordinal>_<reason>.json, pruned to the frDumpRetain
	// newest.
	Dir string
}

// frDumpRetain bounds the anomaly dump files kept in
// FlightRecConfig.Dir.
const frDumpRetain = 8

// adminCache is what the admin views are computed from: the status
// counters, the interval series and the merged event rings as of the
// last barrier. Every slice is immutable once published.
type adminCache struct {
	status obs.StatusReport
	series obs.Series
	life   []obs.Event     // sampled flow-lifecycle events
	spans  []obs.BatchSpan // sampled batch spans
	dump   *obs.FRDump     // flight events; nil when the recorder is disabled
}

// pendAnomaly parks an anomaly for the router, first-wins: triggers
// fire on shard goroutines (quarantine spikes, degraded entry) or
// inside a blocked router push (sustained ring-full), and neither
// place can run a barrier. Coalescing concurrent anomalies to one is
// fine — the dump captures the full merged state anyway, and the
// per-ring cooldown bounds the pend rate.
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
	if dir := e.opts.FlightRec.Dir; dir != "" {
		if err := writeFRDumpFile(dir, e.frDumps, a.Reason, d); err != nil && e.dumpErr == nil {
			e.dumpErr = fmt.Errorf("core: flight-recorder dump: %w", err)
		}
	}
	e.fr.Record(obs.Event{Kind: obs.FRDumped, Clock: a.Clock, Arg: int64(e.frDumps)})
}

// gather merges one ring per shard, plus the router's own where there
// is one, in (Shard, Seq) order. Quiesced router side only.
func gather[T obs.Element[T]](e *Engine, pick func(*shard) *obs.Ring[T], router ...*obs.Ring[T]) []T {
	rings := make([]*obs.Ring[T], 0, len(e.shards)+1)
	for _, sh := range e.shards {
		rings = append(rings, pick(sh))
	}
	return obs.Merge(append(rings, router...)...)
}

// buildDump captures every shard's flight ring plus the router's in
// one dump. Quiesced router side only.
func (e *Engine) buildDump(reason string, clock uint64, origin int32) *obs.FRDump {
	return &obs.FRDump{
		Reason: reason,
		Clock:  clock,
		Shard:  origin,
		Health: e.healthNow(),
		Events: gather(e, func(sh *shard) *obs.Ring[obs.Event] { return sh.fe.fr }, e.fr),
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

// refreshAdmin rebuilds the admin cache. Quiesced router side
// only. The series is copied by value: the recorder only ever appends,
// so the copied header is an immutable prefix.
func (e *Engine) refreshAdmin() {
	c := adminCache{status: e.buildStatus(), series: *e.rec.Series()}
	if e.obsReg != nil {
		c.life = gather(e, func(sh *shard) *obs.Ring[obs.Event] { return sh.fe.obs.Tracer })
		c.spans = gather(e, func(sh *shard) *obs.Ring[obs.BatchSpan] { return sh.spans })
	}
	if e.fr != nil {
		c.dump = e.buildDump("on-demand", e.pkts, -1)
	}
	e.adminMu.Lock()
	e.admin = c
	e.adminMu.Unlock()
}

// cached returns the admin cache as of the last barrier. Safe from any
// goroutine.
func (e *Engine) cached() adminCache {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	return e.admin
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

// Status returns the merged health report: counters exact at the last
// barrier, health and clock overlaid live. Safe from any goroutine.
func (e *Engine) Status() *obs.StatusReport {
	e.adminMu.Lock()
	st := e.admin.status
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
func (e *Engine) ObsSpans() []obs.BatchSpan { return e.cached().spans }

// FlightDump returns the merged flight-recorder dump as of the last
// barrier (nil when the recorder is disabled). Safe from any
// goroutine; the dump is immutable once cached.
func (e *Engine) FlightDump() *obs.FRDump { return e.cached().dump }

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

// ObsSeries returns the barrier-quiesced interval time-series as of
// the last barrier (empty when snapshots are disabled). Safe from any
// goroutine.
func (e *Engine) ObsSeries() *obs.Series {
	c := e.cached()
	return &c.series
}

// ObsTimelines reconstructs the sampled flow-lifecycle timelines from
// the lifecycle events cached at the last barrier (nil when telemetry
// is disabled). Safe from any goroutine.
func (e *Engine) ObsTimelines() []obs.Timeline {
	return obs.Timelines(e.cached().life, func(reason uint8) string { return gpv.EvictReason(reason).String() })
}

// ObsSource adapts the engine to the obs HTTP handler and dump
// writers: Scrape is live and lock-free, everything else is a view
// over the barrier-refreshed admin cache (Status with live
// health/clock overlays). Endpoints for disabled facilities stay nil.
func (e *Engine) ObsSource() obs.Source {
	src := obs.Source{Scrape: e.ObsScrape, Status: e.Status}
	if e.opts.Obs.Enabled {
		src.Series, src.Timelines, src.Spans = e.ObsSeries, e.ObsTimelines, e.ObsSpans
	}
	if e.fr != nil {
		src.FlightRec = e.FlightDump
	}
	return src
}

// writeFRDumpFile writes one anomaly dump into dir and prunes old
// dumps down to retain. Ordinal-numbered names sort lexicographically
// in dump order, so retention and fixed-seed reproducibility need no
// timestamps.
func writeFRDumpFile(dir string, ordinal int, reason string, d *obs.FRDump) error {
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
	return pruneFRDumps(dir)
}

// pruneFRDumps keeps the newest frDumpRetain dump files.
func pruneFRDumps(dir string) error {
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
	for len(names) > frDumpRetain {
		if err := os.Remove(filepath.Join(dir, names[0])); err != nil {
			return err
		}
		names = names[1:]
	}
	return nil
}

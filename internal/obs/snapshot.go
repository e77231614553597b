package obs

import (
	"fmt"
	"sync/atomic"
)

// Snapshot is one point-in-time (or, after DeltaFrom, one interval's)
// view of a registry's values. Defs are shared with the registry;
// Vals is an owned copy read with atomic loads, so capturing while
// shards are running is safe and lock-free.
type Snapshot struct {
	// Clock is the logical time of the capture, in packets processed
	// by the engine that owns the recorder (0 for ad-hoc scrapes).
	Clock uint64
	Defs  []SeriesDef
	Vals  []uint64
}

// Snapshot captures the registry's current values lock-free.
//
//superfe:coldpath
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Defs: r.defs, Vals: make([]uint64, len(r.vals))}
	for i := range r.vals {
		s.Vals[i] = atomic.LoadUint64(&r.vals[i])
	}
	return s
}

// MergeSnapshots sums per-shard snapshots with identical schemas
// (every shard registers the same series in the same order, so the
// flat arrays line up). Counters and histogram slots sum into shard
// totals; gauges sum too — the sum-at-snapshot semantics of per-shard
// occupancy gauges, where the merged value is the whole deployment's
// occupancy.
func MergeSnapshots(snaps ...*Snapshot) *Snapshot {
	if len(snaps) == 0 {
		return &Snapshot{}
	}
	out := &Snapshot{Clock: snaps[0].Clock, Defs: snaps[0].Defs, Vals: make([]uint64, len(snaps[0].Vals))}
	for _, s := range snaps {
		if len(s.Vals) != len(out.Vals) {
			panic(fmt.Sprintf("superfe: obs: merging snapshots with mismatched schemas (%d vs %d slots)", len(s.Vals), len(out.Vals)))
		}
		for i, v := range s.Vals {
			out.Vals[i] += v
		}
	}
	return out
}

// Append concatenates another snapshot's series onto s (used to stack
// the engine-level registry after the merged shard registries).
func (s *Snapshot) Append(o *Snapshot) {
	base := len(s.Vals)
	// Defs may still be the registry's own slice (shared by every
	// concurrent scrape): cap it so the first append copies.
	s.Defs = s.Defs[:len(s.Defs):len(s.Defs)]
	for _, d := range o.Defs {
		d.Slot += base
		s.Defs = append(s.Defs, d)
	}
	s.Vals = append(s.Vals, o.Vals...)
}

// Tagged returns a copy of the snapshot with the given label
// prepended to every series — how a multi-tenant deployment scopes
// each tenant's merged registry before exposition, so one scrape
// surface can carry many tenants without series collisions. Defs are
// copied (the originals are shared with the registry); Vals are
// shared with s, which is safe because snapshots are immutable once
// captured.
func (s *Snapshot) Tagged(name, value string) *Snapshot {
	out := &Snapshot{Clock: s.Clock, Defs: make([]SeriesDef, len(s.Defs)), Vals: s.Vals}
	for i, d := range s.Defs {
		labels := make([]LabelPair, 0, len(d.Labels)+1)
		labels = append(labels, L(name, value))
		labels = append(labels, d.Labels...)
		d.Labels = labels
		out.Defs[i] = d
	}
	return out
}

// DeltaFrom returns the interval view between prev and s: counter and
// histogram slots are differenced (monotonic, so the delta is the
// interval's activity); gauge slots keep s's instantaneous value.
func (s *Snapshot) DeltaFrom(prev *Snapshot) *Snapshot {
	out := &Snapshot{Clock: s.Clock, Defs: s.Defs, Vals: make([]uint64, len(s.Vals))}
	copy(out.Vals, s.Vals)
	if prev == nil {
		return out
	}
	if len(prev.Vals) != len(s.Vals) {
		panic("superfe: obs: delta between snapshots with mismatched schemas")
	}
	for _, d := range s.Defs {
		if d.Kind == KindGauge {
			continue
		}
		for i, n := 0, d.slots(); i < n; i++ {
			out.Vals[d.Slot+i] -= prev.Vals[d.Slot+i]
		}
	}
	return out
}

// Value returns the scalar value of the named series with exactly the
// given label values (order-sensitive, matching registration), and
// whether it was found. Histograms return their sample count.
func (s *Snapshot) Value(name string, labelValues ...string) (uint64, bool) {
	for i := range s.Defs {
		d := &s.Defs[i]
		if d.Name != name || len(d.Labels) != len(labelValues) {
			continue
		}
		match := true
		for j, lv := range labelValues {
			if d.Labels[j].Value != lv {
				match = false
				break
			}
		}
		if match {
			return s.Vals[d.Slot], true
		}
	}
	return 0, false
}

// Series is the accumulated interval time-series: one delta Snapshot
// per logical-clock interval, in clock order.
type Series struct {
	// Interval is the snapshot period in packets.
	Interval uint64
	// Snaps holds the interval deltas (counters/histograms are the
	// interval's activity, gauges the end-of-interval value).
	Snaps []*Snapshot
}

// Tagged returns a copy of the series with every interval snapshot
// Tagged.
func (s *Series) Tagged(name, value string) *Series {
	out := &Series{Interval: s.Interval, Snaps: make([]*Snapshot, len(s.Snaps))}
	for i, snap := range s.Snaps {
		out.Snaps[i] = snap.Tagged(name, value)
	}
	return out
}

// Recorder drives logical-clock snapshots: Tick once per packet from
// the engine's router; every Interval ticks it calls capture — which
// the owning engine points at a (possibly barrier-quiesced) merged
// scrape — and appends the delta to the series. The tick itself is
// two integer ops, hot-path clean.
type Recorder struct {
	interval uint64
	// left counts down to the next fire: a decrement and a zero test
	// per Tick instead of a modulo by the (variable) interval — the
	// divide was measurable in the obs-overhead gate.
	left    uint64
	n       uint64
	capture func() *Snapshot
	prev    *Snapshot
	series  Series
}

// NewRecorder returns a recorder snapshotting every interval packets
// via capture. A nil recorder is safe to Tick.
func NewRecorder(interval uint64, capture func() *Snapshot) *Recorder {
	return &Recorder{interval: interval, left: interval, capture: capture, series: Series{Interval: interval}}
}

// Tick advances the logical clock by one packet.
//
//superfe:hotpath
func (rec *Recorder) Tick() {
	if rec == nil {
		return
	}
	rec.n++
	rec.left--
	if rec.left == 0 {
		rec.left = rec.interval
		rec.fire()
	}
}

// fire captures one interval snapshot. Amortized: runs once per
// Interval packets.
//
//superfe:coldpath
func (rec *Recorder) fire() {
	snap := rec.capture()
	snap.Clock = rec.n
	rec.series.Snaps = append(rec.series.Snaps, snap.DeltaFrom(rec.prev))
	rec.prev = snap
}

// Series returns the recorded interval series.
func (rec *Recorder) Series() *Series {
	if rec == nil {
		return &Series{}
	}
	return &rec.series
}

package obs

import (
	"encoding/json"
	"io"
	"sort"

	"superfe/internal/flowkey"
)

// EventKind classifies one recorded Event: a stage of a sampled flow
// group's lifecycle through the pipeline, or a flight event — one of
// the rare, diagnosis-grade state changes (degradation, quarantine,
// backpressure) the always-on flight rings retain.
type EventKind uint8

// Lifecycle stages in pipeline order, then the flight events.
const (
	EvAdmit      EventKind = iota // CG group admitted to a switch cache slot
	EvCellAppend                  // one packet's cell batched into the group
	EvEvict                       // MGPV evicted from the switch (with reason)
	EvNICMerge                    // MGPV merged into NIC group state
	EvVectorEmit                  // feature vector emitted for the group

	FRDegradedEnter // pressure controller entered degraded mode
	FRDegradedExit  // pressure controller exited degraded mode
	FRQuarantine    // a frame was rejected at decode/integrity check
	FRRetry         // a delivery was re-attempted after an island stall
	FRRetryDrop     // a frame was shed after the retry budget
	FRShed          // degraded-mode long-buffer shedding (coalesced; arg = total shed)
	FREMEMDrop      // NIC EMEM allocation failure drop (coalesced; arg = total drops)
	FRBarrier       // router barrier (arg = 1 when flushing)
	FRFlush         // engine flush
	FRRingPark      // router parked on a full ring, waiting for the shard to release a slot
	FRDumped        // a dump bundle was produced (arg = dump ordinal)
	numKinds
)

var kindNames = [numKinds]string{
	EvAdmit: "admit", EvCellAppend: "cell-append", EvEvict: "evict",
	EvNICMerge: "nic-merge", EvVectorEmit: "vector-emit",
	FRDegradedEnter: "degraded-enter", FRDegradedExit: "degraded-exit",
	FRQuarantine: "quarantine", FRRetry: "retry", FRRetryDrop: "retry-drop",
	FRShed: "shed", FREMEMDrop: "emem-drop", FRBarrier: "barrier", FRFlush: "flush",
	FRRingPark: "ring-park", FRDumped: "dumped",
}

// String names the kind for exposition.
func (k EventKind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "event(?)"
}

// Event is the one record every event ring stores. Clock is the
// recording side's logical clock — switch packets for switch and
// engine events, NIC cells for NIC events, router packets for router
// events — so clocks are comparable only within a shard and stage;
// ordering comes from (Shard, Seq), which the ring stamps at Snapshot.
// Lifecycle events carry Key (always the CG group key, the sampling
// unit), Reason (EvEvict only: the evicting stage's code for the cause,
// spelled out by the Timelines view — kept a plain byte so ring slots
// hold no pointer for the collector to scan) and in Arg the cells in
// the MGPV
// (evict/merge) or the vector dimension (emit); flight events carry
// their kind-specific Arg.
type Event struct {
	Seq    uint64
	Clock  uint64
	Arg    int64
	Key    flowkey.Key
	Shard  int32 // -1 = the router's ring
	Kind   EventKind
	Reason uint8
}

func (e Event) stamp(shard int32, seq uint64) Event {
	e.Shard, e.Seq = shard, seq
	return e
}

// Timeline is the reconstructed lifecycle of one sampled CG flow
// group: its events in pipeline order.
type Timeline struct {
	Key    flowkey.Key
	Events []Event
	// reasonName spells an EvEvict event's Reason for rendering.
	reasonName func(uint8) string
}

// Complete reports whether the timeline covers a full life: an admit,
// a later evict, and a later vector emit.
func (tl *Timeline) Complete() bool {
	stage := 0
	for _, e := range tl.Events {
		switch {
		case stage == 0 && e.Kind == EvAdmit:
			stage = 1
		case stage == 1 && e.Kind == EvEvict:
			stage = 2
		case stage == 2 && e.Kind == EvVectorEmit:
			return true
		}
	}
	return false
}

// Timelines is the flow-timeline view over merged lifecycle events:
// it groups them by CG key. CG-hash sharding puts all of one group's
// events on one shard, so within a timeline the single ring's Seq is a
// total order. Output is sorted by key for deterministic rendering;
// events is not modified. reasonName spells the evict events' Reason
// codes: the vocabulary belongs to the stage that records them.
func Timelines(events []Event, reasonName func(uint8) string) []Timeline {
	if len(events) == 0 {
		return nil
	}
	all := append([]Event(nil), events...)
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return keyLess(all[i].Key, all[j].Key)
		}
		return all[i].Seq < all[j].Seq
	})
	var out []Timeline
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].Key == all[i].Key {
			j++
		}
		out = append(out, Timeline{Key: all[i].Key, Events: all[i:j], reasonName: reasonName})
		i = j
	}
	return out
}

// keyLess is the deterministic ordering on flow keys used for
// rendering.
func keyLess(a, b flowkey.Key) bool {
	if a.Gran != b.Gran {
		return a.Gran < b.Gran
	}
	return a.Tuple.Less(b.Tuple)
}

// WriteTimelinesJSON renders reconstructed flow timelines as JSON.
func WriteTimelinesJSON(w io.Writer, tls []Timeline) error {
	type jsonEvent struct {
		Seq    uint64 `json:"seq"`
		Clock  uint64 `json:"clock"`
		Kind   string `json:"kind"`
		Reason string `json:"reason,omitempty"`
		Cells  uint16 `json:"cells,omitempty"`
	}
	type jsonTimeline struct {
		Key      string      `json:"key"`
		Complete bool        `json:"complete"`
		Events   []jsonEvent `json:"events"`
	}
	out := make([]jsonTimeline, 0, len(tls))
	for i := range tls {
		tl := &tls[i]
		jt := jsonTimeline{Key: tl.Key.String(), Complete: tl.Complete()}
		for _, e := range tl.Events {
			je := jsonEvent{Seq: e.Seq, Clock: e.Clock, Kind: e.Kind.String(), Cells: uint16(e.Arg)}
			if e.Kind == EvEvict {
				je.Reason = tl.reasonName(e.Reason)
			}
			jt.Events = append(jt.Events, je)
		}
		out = append(out, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Ring capacities per retention class, and the flight rings' anomaly
// trigger tuning: quarSpikeCount quarantines within spikeWindowClocks
// clock units fire quarantine-spike, parkSpikeCount ring-park events
// within the same window fire ring-full-sustained, and anomalyCooldown
// clock units of silence follow any fired anomaly, bounding dump
// storms.
const (
	traceRingSize  = 4096
	spanRingSize   = 1024
	flightRingSize = 1024

	quarSpikeCount    = 32
	parkSpikeCount    = 64
	spikeWindowClocks = 4096
	anomalyCooldown   = 65536
)

// Anomaly is one fired trigger: the reason, where and when.
type Anomaly struct {
	Reason string
	Clock  uint64
	Shard  int32
}

// NewFlightRing builds shard's always-on flight ring (-1 = the
// router). Its anomaly triggers — degraded entry, quarantine-rate
// spike, sustained ring-full — watch the event stream and call
// onAnomaly synchronously on the recording goroutine, rate-limited by
// the cooldown; onAnomaly must not block. A nil onAnomaly builds the
// ring without triggers.
func NewFlightRing(shard int, onAnomaly func(Anomaly)) *Ring[Event] {
	r := NewRing[Event](shard, 1, flightRingSize)
	if onAnomaly == nil {
		return r
	}
	t := &triggers{
		shard:     int32(shard),
		onAnomaly: onAnomaly,
		quar:      spikeWindow{clocks: make([]uint64, quarSpikeCount)},
		park:      spikeWindow{clocks: make([]uint64, parkSpikeCount)},
	}
	r.watch = t.observe
	return r
}

// triggers is the anomaly view over one flight ring's event stream.
type triggers struct {
	shard         int32
	onAnomaly     func(Anomaly)
	quar, park    spikeWindow
	cooldownUntil uint64
}

// observe evaluates the triggers for one recorded event: at most one
// fixed-array update, no allocation.
func (t *triggers) observe(e Event) {
	switch e.Kind {
	case FRDegradedEnter:
		t.fire("degraded-enter", e.Clock)
	case FRQuarantine:
		if t.quar.hit(e.Clock) {
			t.fire("quarantine-spike", e.Clock)
		}
	case FRRingPark:
		if t.park.hit(e.Clock) {
			t.fire("ring-full-sustained", e.Clock)
		}
	}
}

// fire reports an anomaly unless still cooling down from the last one.
// A ring's clocks are monotone, so the comparison is safe.
func (t *triggers) fire(reason string, clock uint64) {
	if t.cooldownUntil > 0 && clock < t.cooldownUntil {
		return
	}
	t.cooldownUntil = clock + anomalyCooldown
	t.onAnomaly(Anomaly{Reason: reason, Clock: clock, Shard: t.shard})
}

// spikeWindow detects len(clocks) events within spikeWindowClocks
// using a fixed circular array of the last event clocks — no
// allocation per hit.
type spikeWindow struct {
	clocks []uint64
	idx    int
	full   bool
}

// hit records one event and reports whether the last len(clocks)
// events all landed within the window.
func (s *spikeWindow) hit(clock uint64) bool {
	s.clocks[s.idx] = clock
	s.idx++
	if s.idx == len(s.clocks) {
		s.idx, s.full = 0, true
	}
	if !s.full {
		return false
	}
	// s.idx now points at the oldest retained clock.
	return clock-s.clocks[s.idx] <= spikeWindowClocks
}

// FRDump is the anomaly-dump view over merged flight events: why it
// was produced and the flight rings' state at that moment.
type FRDump struct {
	Reason string
	Clock  uint64
	Shard  int32 // triggering shard; -1 for router / on-demand dumps
	Health Health
	Events []Event
}

// WriteFlightRecJSON renders one dump as indented JSON with event
// kinds spelled out.
func WriteFlightRecJSON(w io.Writer, d *FRDump) error {
	type jsonEvent struct {
		Seq   uint64 `json:"seq"`
		Clock uint64 `json:"clock"`
		Shard int32  `json:"shard"`
		Kind  string `json:"kind"`
		Arg   int64  `json:"arg,omitempty"`
	}
	out := struct {
		Reason string      `json:"reason"`
		Clock  uint64      `json:"clock"`
		Shard  int32       `json:"shard"`
		Health string      `json:"health"`
		Events []jsonEvent `json:"events"`
	}{d.Reason, d.Clock, d.Shard, d.Health.String(), make([]jsonEvent, 0, len(d.Events))}
	for _, e := range d.Events {
		out.Events = append(out.Events, jsonEvent{
			Seq: e.Seq, Clock: e.Clock, Shard: e.Shard, Kind: e.Kind.String(), Arg: e.Arg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

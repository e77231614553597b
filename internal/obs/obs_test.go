package obs

import (
	"slices"
	"strings"
	"testing"

	"superfe/internal/flowkey"
)

// observe records samples into h through the staging buffer the
// pipeline's stages use, and publishes them.
func observe(h Histogram, xs ...int64) {
	st := h.Stage()
	for _, x := range xs {
		st.Observe(x)
	}
	st.Flush()
}

// histValue reads the named histogram series of s: its sample count,
// sum and per-bucket counters (the last bucket is +Inf overflow).
func histValue(t *testing.T, s *Snapshot, name string) (count uint64, sum int64, buckets []uint64) {
	t.Helper()
	for i := range s.Defs {
		if d := &s.Defs[i]; d.Name == name && d.Kind == KindHistogram {
			return s.Vals[d.Slot], int64(s.Vals[d.Slot+1]), s.Vals[d.Slot+histHdrSlots : d.Slot+d.slots()]
		}
	}
	t.Fatalf("no histogram series %q", name)
	return 0, 0, nil
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	h := r.Histogram("h", "a histogram", []int64{1, 4, 16})
	r.Seal()

	c.Inc()
	c.Add(4)
	g.Set(10)
	g.Set(7)
	observe(h, 0, 1, 2, 5, 100)

	s := r.Snapshot()
	if v, ok := s.Value("c_total"); !ok || v != 5 {
		t.Errorf("counter = %d,%v, want 5", v, ok)
	}
	if v, ok := s.Value("g"); !ok || int64(v) != 7 {
		t.Errorf("gauge = %d,%v, want 7", int64(v), ok)
	}
	count, sum, buckets := histValue(t, s, "h")
	if count != 5 {
		t.Fatalf("histogram count = %d, want 5", count)
	}
	if sum != 108 {
		t.Errorf("histogram sum = %d, want 108", sum)
	}
	// Edges 1,4,16 (+Inf): {0,1}→bucket0, {2}→bucket1, {5}→bucket2, {100}→+Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, buckets[i], w)
		}
	}
}

// TestGeometricEdges: widths start at base and grow by the factor, and
// a histogram on those edges puts one sample of each range in its bucket.
func TestGeometricEdges(t *testing.T) {
	edges := GeometricEdges(100, 2, 4)
	if want := []int64{100, 300, 700, 1500}; !slices.Equal(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	r := NewRegistry()
	h := r.Histogram("h", "geometric", edges)
	r.Seal()
	observe(h, 50, 150, 500, 1500, 5000)
	_, _, buckets := histValue(t, r.Snapshot(), "h")
	if want := []uint64{1, 1, 1, 1, 1}; !slices.Equal(buckets, want) {
		t.Errorf("buckets = %v, want %v", buckets, want)
	}
}

func TestZeroValueHandlesAreNoOps(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	c.Add(3)
	g.Set(9)
	observe(h, 42) // must not panic
}

func TestRegisterAfterSealPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "first")
	r.Seal()
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "superfe:") {
			t.Fatalf("panic = %q, want superfe: prefix", msg)
		}
	}()
	r.Counter("b_total", "late")
	t.Fatal("registration after Seal did not panic")
}

func TestMergeSnapshotsAndAppend(t *testing.T) {
	mk := func(c1, g1 uint64) *Snapshot {
		r := NewRegistry()
		c := r.Counter("c_total", "counter")
		g := r.Gauge("g", "gauge")
		r.Seal()
		c.Add(c1)
		g.Set(int64(g1))
		return r.Snapshot()
	}
	merged := MergeSnapshots(mk(3, 10), mk(4, 20))
	if v, _ := merged.Value("c_total"); v != 7 {
		t.Errorf("merged counter = %d, want 7", v)
	}
	if v, _ := merged.Value("g"); v != 30 {
		t.Errorf("merged gauge = %d, want 30 (sum-at-snapshot)", v)
	}

	extra := NewRegistry()
	ec := extra.Counter("extra_total", "router counter")
	extra.Seal()
	ec.Add(99)
	merged.Append(extra.Snapshot())
	if v, ok := merged.Value("extra_total"); !ok || v != 99 {
		t.Errorf("appended series = %d,%v, want 99 (slot re-offset)", v, ok)
	}
	if v, _ := merged.Value("c_total"); v != 7 {
		t.Errorf("append disturbed existing slots: c_total = %d", v)
	}
}

func TestDeltaFromDiffsCountersCarriesGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	g := r.Gauge("g", "gauge")
	h := r.Histogram("h", "histogram", []int64{10})
	r.Seal()

	c.Add(5)
	g.Set(100)
	observe(h, 3)
	first := r.Snapshot()

	c.Add(2)
	g.Set(40)
	observe(h, 30)
	second := r.Snapshot()

	d := second.DeltaFrom(first)
	if v, _ := d.Value("c_total"); v != 2 {
		t.Errorf("counter delta = %d, want 2", v)
	}
	if v, _ := d.Value("g"); v != 40 {
		t.Errorf("gauge in delta = %d, want instantaneous 40", v)
	}
	count, _, buckets := histValue(t, d, "h")
	if count != 1 || buckets[0] != 0 || buckets[1] != 1 {
		t.Errorf("histogram delta count=%d buckets=%v, want 1 sample in +Inf", count, buckets)
	}
}

func TestRecorderFiresOnInterval(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "counter")
	r.Seal()
	rec := NewRecorder(10, r.Snapshot)
	for i := 0; i < 35; i++ {
		c.Inc()
		rec.Tick()
	}
	series := rec.Series()
	if len(series.Snaps) != 3 {
		t.Fatalf("got %d interval snapshots for 35 ticks at interval 10, want 3", len(series.Snaps))
	}
	for i, s := range series.Snaps {
		if want := uint64(10 * (i + 1)); s.Clock != want {
			t.Errorf("snap[%d].Clock = %d, want %d", i, s.Clock, want)
		}
		if v, _ := s.Value("c_total"); v != 10 {
			t.Errorf("snap[%d] counter delta = %d, want 10", i, v)
		}
	}

	var nilRec *Recorder
	nilRec.Tick() // must not panic
	if got := nilRec.Series(); len(got.Snaps) != 0 {
		t.Error("nil recorder series should be empty")
	}
}

func testKey(srcIP uint32) flowkey.Key {
	return flowkey.Key{Gran: flowkey.GranFlow, Tuple: flowkey.FiveTuple{
		SrcIP: srcIP, DstIP: 10, SrcPort: 1000, DstPort: 80, Proto: 6,
	}}
}

// TestFlowTracerSamplingAndRing covers the one ring every event view is
// stored through: sampling mask, nil-safety, wrap, and the oldest-first
// snapshot stamped with the ring's own (Shard, Seq).
func TestFlowTracerSamplingAndRing(t *testing.T) {
	tr := NewRing[Event](3, 64, 8)
	if tr.Sampled(1) {
		t.Error("hash 1 should not be sampled at 1-in-64")
	}
	if !tr.Sampled(0) || !tr.Sampled(64) {
		t.Error("hashes ≡ 0 (mod 64) should be sampled")
	}
	var nilTr *Ring[Event]
	if nilTr.Sampled(0) {
		t.Error("nil ring samples nothing")
	}
	nilTr.Record(Event{Kind: EvAdmit, Key: testKey(1)}) // must not panic
	if nilTr.Seq() != 0 || nilTr.Snapshot() != nil {
		t.Error("nil ring must read empty")
	}

	// Overfill the 8-slot ring; the retained window is the newest 8.
	for i := 0; i < 12; i++ {
		tr.Record(Event{Kind: EvCellAppend, Key: testKey(uint32(i)), Clock: uint64(i), Arg: 1})
	}
	evs := tr.Snapshot()
	if len(evs) != 8 || tr.Seq() != 12 {
		t.Fatalf("ring retained %d of %d events, want 8 of 12", len(evs), tr.Seq())
	}
	for i, e := range evs {
		if want := uint64(4 + i); e.Seq != want || e.Clock != want || e.Shard != 3 {
			t.Errorf("event[%d] = seq %d clock %d shard %d, want %d/%d/3 (oldest-first)", i, e.Seq, e.Clock, e.Shard, want, want)
		}
	}

	// The router's ring (shard -1) merges ahead of every shard's.
	router := NewRing[Event](-1, 1, 4)
	router.Record(Event{Kind: FRBarrier})
	if all := Merge(tr, nil, router); len(all) != 9 || all[0].Kind != FRBarrier || all[1].Seq != 4 {
		t.Errorf("merge order wrong: %d events, first %v", len(all), all[0])
	}
}

func TestTimelineReconstruction(t *testing.T) {
	a, b := testKey(1), testKey(2)
	// Interleave two flows across two shard rings, as CG-hash
	// sharding would: all of one flow's events on one ring.
	t1 := NewRing[Event](0, 1, 16)
	t1.Record(Event{Kind: EvAdmit, Key: a, Clock: 1})
	t1.Record(Event{Kind: EvCellAppend, Key: a, Clock: 2, Arg: 1})
	t1.Record(Event{Kind: EvEvict, Key: a, Clock: 3, Reason: 1, Arg: 2})
	t1.Record(Event{Kind: EvNICMerge, Key: a, Clock: 4, Arg: 2})
	t1.Record(Event{Kind: EvVectorEmit, Key: a, Clock: 5, Arg: 7})
	t2 := NewRing[Event](1, 1, 16)
	t2.Record(Event{Kind: EvAdmit, Key: b, Clock: 1})
	t2.Record(Event{Kind: EvEvict, Key: b, Clock: 2, Reason: 3, Arg: 1})

	tls := Timelines(Merge(t1, t2), func(r uint8) string { return [...]string{"collision", "full", "aging", "flush"}[r] })
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2", len(tls))
	}
	if tls[0].Key != a || tls[1].Key != b {
		t.Fatalf("timelines not sorted by key: %v, %v", tls[0].Key, tls[1].Key)
	}
	if !tls[0].Complete() {
		t.Error("flow a has admit→evict→emit and should be complete")
	}
	if tls[1].Complete() {
		t.Error("flow b never emitted and should be incomplete")
	}
	kinds := make([]EventKind, 0, len(tls[0].Events))
	for _, e := range tls[0].Events {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EvAdmit, EvCellAppend, EvEvict, EvNICMerge, EvVectorEmit}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("timeline order = %v, want %v", kinds, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sf_evictions_total", "evictions", L("reason", "full"))
	h := r.Histogram("sf_cells", "cells per msg", []int64{1, 2})
	r.Seal()
	c.Add(3)
	observe(h, 1, 2, 9)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# TYPE sf_evictions_total counter\n",
		`sf_evictions_total{reason="full"} 3` + "\n",
		"# TYPE sf_cells histogram\n",
		`sf_cells_bucket{le="1"} 1` + "\n",
		`sf_cells_bucket{le="2"} 2` + "\n",
		`sf_cells_bucket{le="+Inf"} 3` + "\n", // cumulative
		"sf_cells_sum 12\n",
		"sf_cells_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
}

func TestPipelineDisabled(t *testing.T) {
	if p := NewPipeline(Options{}, 0); p != nil {
		t.Fatal("disabled options must yield a nil pipeline")
	}
	o := DefaultOptions()
	o.Enabled = true
	p := NewPipeline(o, 0)
	if p == nil || p.Registry == nil || p.Ring == nil || p.Tracer == nil || p.Spans == nil {
		t.Fatal("enabled pipeline missing components")
	}
	// The registry is handed over open: the shard's stages add their
	// own series before the owner seals it.
	p.Registry.Counter("stage_total", "a stage's own series")
}

// TestBindPublishesDeltas: a bound row's series follows the plain word
// its owner increments, one Publish at a time, labelled rows included.
func TestBindPublishesDeltas(t *testing.T) {
	var pkts uint64
	var byCause [2]uint64
	r := NewRegistry()
	b := r.Bind([]Row{
		{Name: "st_pkts_total", Help: "packets", Word: &pkts},
		{Name: "st_drops_total", Help: "drops by cause", Labels: []LabelPair{L("cause", "a")}, Word: &byCause[0]},
		{Name: "st_drops_total", Help: "drops by cause", Labels: []LabelPair{L("cause", "b")}, Word: &byCause[1]},
	})
	r.Seal()
	value := func(name string, labels ...string) uint64 {
		t.Helper()
		v, ok := r.Snapshot().Value(name, labels...)
		if !ok {
			t.Fatalf("series %s%v not registered", name, labels)
		}
		return v
	}
	pkts, byCause[1] = 5, 2
	if value("st_pkts_total") != 0 {
		t.Error("a word's increments must not reach the series before Publish")
	}
	b.Publish()
	pkts += 3
	b.Publish()
	b.Publish()
	if got := [3]uint64{value("st_pkts_total"), value("st_drops_total", "a"), value("st_drops_total", "b")}; got != [3]uint64{8, 0, 2} {
		t.Errorf("published (pkts, drops a, drops b) = %v, want [8 0 2]", got)
	}
	var zero Bound
	zero.Publish()
}

func TestSnapshotTagged(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("svc_pkts_total", "packets", L("shard", "0"))
	g := r.Gauge("svc_depth", "queue depth")
	r.Seal()
	c.Add(7)
	g.Set(3)
	snap := r.Snapshot()
	tagged := snap.Tagged("tenant", "alpha")
	// The tenant label is prepended; existing labels survive behind it.
	if v, ok := tagged.Value("svc_pkts_total", "alpha", "0"); !ok || v != 7 {
		t.Errorf("tagged counter = %d, %v", v, ok)
	}
	if v, ok := tagged.Value("svc_depth", "alpha"); !ok || v != 3 {
		t.Errorf("tagged gauge = %d, %v", v, ok)
	}
	// The original snapshot (and the registry defs it shares) are
	// untouched.
	if v, ok := snap.Value("svc_pkts_total", "0"); !ok || v != 7 {
		t.Errorf("original snapshot mutated: %d, %v", v, ok)
	}
	if len(snap.Defs[0].Labels) != 1 {
		t.Errorf("registry defs mutated: %v", snap.Defs[0].Labels)
	}
}

package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Kind distinguishes the three metric types. The distinction matters
// twice: Prometheus TYPE lines, and snapshot semantics — counters and
// histogram slots are monotonic and diffed into interval deltas,
// gauges are instantaneous and carried through as-is (summed across
// shards at snapshot time).
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as Prometheus TYPE lines do.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LabelPair is one label on a series. Label values are fixed at
// registration — the registry has no dynamic label lookup, which is
// what keeps the update path free of maps and allocation.
type LabelPair struct {
	Name  string
	Value string
}

// L is shorthand for constructing a LabelPair.
func L(name, value string) LabelPair { return LabelPair{Name: name, Value: value} }

// SeriesDef is the exposition metadata of one registered series.
// Slot indexes the registry's flat value array; histograms occupy
// len(Edges)+3 consecutive slots (count, sum, buckets..., +Inf
// bucket).
type SeriesDef struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []LabelPair
	Slot   int
	Edges  []int64 // histogram bucket upper bounds (inclusive); nil otherwise
}

func (d *SeriesDef) slots() int {
	if d.Kind == KindHistogram {
		return histHdrSlots + len(d.Edges) + 1
	}
	return 1
}

// Histogram slot layout: vals[slot] = sample count, vals[slot+1] =
// sum (int64 bits), vals[slot+2...] = bucket counters.
const histHdrSlots = 2

// Registry is one shard's metric store: every series registered up
// front, all values in one flat array updated with atomic adds, so a
// scrape from another goroutine is lock-free and the update path is
// allocation-free. Registration must complete before the first update
// or scrape; Seal enforces that in tests.
type Registry struct {
	defs   []SeriesDef
	vals   []uint64
	sealed bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Seal freezes registration. Further Counter/Gauge/Histogram calls
// panic — catching the "registered a metric mid-run" bug that would
// invalidate outstanding handles when the value array grows.
func (r *Registry) Seal() { r.sealed = true }

func (r *Registry) register(name, help string, kind Kind, edges []int64, labels []LabelPair) int {
	if r.sealed {
		panic("superfe: obs: registration after Seal (register all metrics before the pipeline starts)")
	}
	def := SeriesDef{Name: name, Help: help, Kind: kind, Labels: labels, Slot: len(r.vals), Edges: edges}
	r.defs = append(r.defs, def)
	for i := 0; i < def.slots(); i++ {
		//superfe:atomic-ok registration is single-threaded and precedes publication; Seal() panics on mid-run registration so the array never grows under concurrent handles
		r.vals = append(r.vals, 0)
	}
	return def.Slot
}

// Counter registers a monotonic counter series.
func (r *Registry) Counter(name, help string, labels ...LabelPair) Counter {
	return Counter{r: r, slot: r.register(name, help, KindCounter, nil, labels)}
}

// Gauge registers an instantaneous gauge series. Per-shard gauges
// (occupancy, live groups) are summed across shards at snapshot time;
// within one shard the semantics are last-write.
func (r *Registry) Gauge(name, help string, labels ...LabelPair) Gauge {
	return Gauge{r: r, slot: r.register(name, help, KindGauge, nil, labels)}
}

// Histogram registers a histogram with the given inclusive bucket
// upper bounds (ascending); samples above the last edge land in an
// implicit +Inf bucket.
func (r *Registry) Histogram(name, help string, edges []int64, labels ...LabelPair) Histogram {
	if len(edges) == 0 {
		panic("superfe: obs: histogram needs at least one bucket edge")
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i] < edges[j] }) {
		panic("superfe: obs: histogram edges must be ascending")
	}
	return Histogram{r: r, slot: r.register(name, help, KindHistogram, edges, labels), edges: edges}
}

// GeometricEdges returns histogram bucket upper bounds whose widths
// start at base and grow by the given integer factor per bucket, e.g.
// base=100, factor=2, bins=4 yields 100, 300, 700, 1500: fine near zero,
// where batch sizes and latencies concentrate, with the long tail still
// covered (the variable-bin-width layout of the paper's §6.1).
func GeometricEdges(base int64, factor int64, bins int) []int64 {
	edges := make([]int64, bins)
	width := base
	var edge int64
	for i := 0; i < bins; i++ {
		edge += width
		edges[i] = edge
		width *= factor
	}
	return edges
}

// Counter is a handle to one monotonic series. The zero value is a
// no-op, so engines can keep handles unconditionally.
type Counter struct {
	r    *Registry
	slot int
}

// Inc adds one.
//
//superfe:hotpath
func (c Counter) Inc() {
	if c.r != nil {
		atomic.AddUint64(&c.r.vals[c.slot], 1)
	}
}

// Add adds n.
//
//superfe:hotpath
func (c Counter) Add(n uint64) {
	if c.r != nil {
		atomic.AddUint64(&c.r.vals[c.slot], n)
	}
}

// Row is one counter series declared by the stage that owns it: the
// exposition metadata and the plain word the stage's hot path
// increments. A stats struct lists each of its counters as one Row;
// its merge, its registration and its publishing all derive from that
// list.
type Row struct {
	Name, Help string
	Labels     []LabelPair
	Word       *uint64
}

// AddRows adds each src word into the dst word of the same row — how a
// stats struct merges another of its type, both lists coming from the
// one Rows method.
func AddRows(dst, src []Row) {
	for i := range dst {
		*dst[i].Word += *src[i].Word
	}
}

// Bound is a set of rows registered as counters, with the value each
// was last published at. The zero value publishes nothing, so a stage
// keeps one unconditionally.
type Bound struct{ rows []boundRow }

type boundRow struct {
	word *uint64
	last uint64
	c    Counter
}

// Bind registers every row as a counter series, in order.
func (r *Registry) Bind(rows []Row) Bound {
	b := Bound{rows: make([]boundRow, len(rows))}
	for i, row := range rows {
		b.rows[i] = boundRow{word: row.Word, c: r.Counter(row.Name, row.Help, row.Labels...)}
	}
	return b
}

// Publish adds what each word gained since the last Publish to its
// series. The owning goroutine calls it at batch boundaries, which
// keeps lock-prefixed instructions off the per-event path; a counter
// that did not move costs a load and a compare.
//
//superfe:hotpath
func (b *Bound) Publish() {
	for i := range b.rows {
		r := &b.rows[i]
		if v := *r.word; v != r.last {
			r.c.Add(v - r.last)
			r.last = v
		}
	}
}

// Gauge is a handle to one instantaneous series (int64 semantics).
// The zero value is a no-op.
type Gauge struct {
	r    *Registry
	slot int
}

// Set stores v (last-write-wins within the owning shard).
//
//superfe:hotpath
func (g Gauge) Set(v int64) {
	if g.r != nil {
		atomic.StoreUint64(&g.r.vals[g.slot], uint64(v))
	}
}

// Histogram is a handle to one distribution series. The zero value is
// a no-op.
type Histogram struct {
	r     *Registry
	slot  int
	edges []int64
}

// HistStage is a goroutine-local staging buffer for one Histogram:
// the owning goroutine Observes into plain memory (no lock-prefixed
// instructions on the per-event path) and Flush publishes the staged
// samples with one atomic add per touched slot. This is the histogram
// half of the batch-granular publishing discipline the pipeline's
// hot-path stages use to stay inside the obs-overhead budget; readers
// only ever see whole flushed batches. The zero value (from a
// zero-value Histogram) is a no-op.
type HistStage struct {
	h       Histogram
	count   uint64
	sum     uint64
	buckets []uint64
}

// Stage returns a staging buffer bound to h. One allocation at
// construction time; Observe/Flush never allocate.
func (h Histogram) Stage() HistStage {
	if h.r == nil {
		return HistStage{}
	}
	return HistStage{h: h, buckets: make([]uint64, len(h.edges)+1)}
}

// Observe stages one sample: a binary search over the fixed edges and
// three plain stores, which Flush publishes.
//
//superfe:hotpath
func (st *HistStage) Observe(x int64) {
	if st.h.r == nil {
		return
	}
	lo, hi := 0, len(st.h.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if x <= st.h.edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	st.count++
	st.sum += uint64(x)
	st.buckets[lo]++
}

// Flush publishes the staged samples into the registry and clears the
// stage. Called at batch boundaries by the owning goroutine.
func (st *HistStage) Flush() {
	if st.h.r == nil || st.count == 0 {
		return
	}
	h := st.h
	atomic.AddUint64(&h.r.vals[h.slot], st.count)
	atomic.AddUint64(&h.r.vals[h.slot+1], st.sum)
	for i, b := range st.buckets {
		if b != 0 {
			atomic.AddUint64(&h.r.vals[h.slot+histHdrSlots+i], b)
			st.buckets[i] = 0
		}
	}
	st.count, st.sum = 0, 0
}

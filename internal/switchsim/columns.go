// Columnar packet batches — the switch's one ingress unit. Instead of
// handing shards packet pointers to chase, the engine's router parses
// each packet exactly once into parallel column arrays — the grouping
// key and its hash (computed once at ingress and reused
// by the switch's slot indexing, the NIC's grouping, fault scoping and
// tracer sampling, §6.2's hash-reuse trick applied end-to-end), the
// policy-filter verdict, the switch metadata the pipeline touches
// (timestamp, size) and the batched metadata field values the compiled
// plan extracts. The shard's switch then streams down contiguous
// arrays with no per-packet pointer dereference and no repeated
// predicate evaluation or field dispatch.
package switchsim

import (
	"superfe/internal/flowkey"
	"superfe/internal/obs"
	"superfe/internal/packet"
)

// Columns is one columnar batch: row i of every column describes the
// same packet. All columns are pre-sized to the batch capacity at
// construction, so appending is an indexed write — the steady state
// allocates nothing.
type Columns struct {
	// N is the number of filled rows.
	N int
	// Keys and Hashes carry the CG grouping key and its HashKey value,
	// computed once by the router.
	Keys   []flowkey.Key
	Hashes []uint32
	// Tuples is the packet 5-tuple (the switch derives FG keys and
	// direction from it).
	Tuples []flowkey.FiveTuple
	// TS and Sizes are the switch metadata driving the clock, aging
	// and byte accounting.
	TS    []int64
	Sizes []uint32
	// Pass is the policy-filter verdict, evaluated once by the router.
	Pass []bool
	// Fields holds the batched metadata field values row-major: row i
	// occupies Fields[i*nf : (i+1)*nf] in plan order.
	Fields []uint32
	nf     int

	// Span is the batch's trace-span state when this batch won the
	// 1-in-K sampling lottery (Span.Sampled): the router fills the
	// ingress half while building the batch, the consuming shard
	// completes the extraction half and records it. Riding inside the
	// batch keeps the hand-off allocation-free and needs no extra
	// synchronisation — the batch itself is the unit of transfer.
	Span obs.BatchSpan
}

// NewColumns returns a batch with capacity rows for nfields batched
// metadata fields per row.
func NewColumns(capacity, nfields int) *Columns {
	return &Columns{
		Keys:   make([]flowkey.Key, capacity),
		Hashes: make([]uint32, capacity),
		Tuples: make([]flowkey.FiveTuple, capacity),
		TS:     make([]int64, capacity),
		Sizes:  make([]uint32, capacity),
		Pass:   make([]bool, capacity),
		Fields: make([]uint32, capacity*nfields),
		nf:     nfields,
	}
}

// Append fills the next row from a packet plus the router-computed
// key, hash and filter verdict, extracting the batched metadata
// fields in plan order. The caller must not append past the capacity
// given to NewColumns.
//
//superfe:hotpath
func (c *Columns) Append(p *packet.Packet, key flowkey.Key, hash uint32, pass bool, fields []packet.FieldName) {
	n := c.N
	c.Keys[n] = key
	c.Hashes[n] = hash
	c.Tuples[n] = p.Tuple
	c.TS[n] = p.Timestamp
	c.Sizes[n] = p.Size
	c.Pass[n] = pass
	row := c.Fields[n*c.nf : n*c.nf+c.nf]
	for i, f := range fields {
		row[i] = uint32(p.Field(f))
	}
	c.N = n + 1
}

// Reset empties the batch for reuse; capacity is retained.
func (c *Columns) Reset() {
	c.N = 0
	c.Span = obs.BatchSpan{}
}

// ProcessColumns runs every row of a columnar batch through the
// pipeline: clock/aging advance, accounting, the pre-evaluated filter
// verdict, then grouping with the router-computed key and hash. It is
// the switch's only row loop: the engine's shards call it with full
// batches, Process with one row.
//
//superfe:hotpath
func (s *Switch) ProcessColumns(c *Columns) {
	if c.nf != s.nvals {
		panic("superfe: switchsim: columnar batch field arity does not match the compiled plan")
	}
	for i := 0; i < c.N; i++ {
		if ts := c.TS[i]; ts > s.now {
			s.now = ts
		}
		s.runAging()

		s.stat.PktsIn++
		s.stat.BytesIn += uint64(c.Sizes[i])
		if !c.Pass[i] {
			s.stat.PktsFiltered++
			continue
		}

		// Group the pre-extracted metadata row under the
		// router-computed key and hash.
		s.groupCell(c.Keys[i], c.Hashes[i], c.Tuples[i], c.Fields[i*c.nf:i*c.nf+c.nf])
	}
	// Telemetry is published once per batch (deltas of the plain
	// stats), not per event: a handful of atomic adds amortized over
	// the whole batch keeps the instrumented hot path within the bench
	// gate's obs-overhead budget. Readers only ever see batch-granular
	// counts, which snapshots (taken at barriers, i.e. batch
	// boundaries) never observe mid-step.
	s.publishObs()
}

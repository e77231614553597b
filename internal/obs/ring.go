package obs

import "sort"

// Element is what a Ring stores: a plain value that can take the
// identity of the slot it was recorded in. stamp returns the element
// as retained at sequence seq of shard's ring.
type Element[T any] interface {
	stamp(shard int32, seq uint64) T
}

// Ring is the one event-ring mechanism behind every trace view:
// sampled flow-lifecycle events, completed batch spans and the
// always-on flight events are each a separate *instance* (a retention
// class — per-cell lifecycle traffic must never overwrite the rare
// flight events) of this type. It is a fixed power-of-two array with a
// 1-in-K hash sampling mask; recording is an indexed store that
// overwrites the oldest element when full — no allocation, no locking.
// Single-writer (the goroutine that owns the shard); Seq and Snapshot
// are quiescent reads. A nil ring is safe: it samples nothing, records
// nothing and snapshots empty, so callers keep the pointer
// unconditionally.
type Ring[T Element[T]] struct {
	shard int32
	mask  uint32 // sample when hash&mask == 0
	seq   uint64
	slots []T
	// watch, when non-nil, observes every recorded element on the
	// recording goroutine (the flight rings' anomaly triggers).
	watch func(T)
}

// NewRing builds shard's ring (-1 = the router) sampling 1-in-
// sampleEvery hashes into capacity slots, both rounded up to a power
// of two.
func NewRing[T Element[T]](shard, sampleEvery, capacity int) *Ring[T] {
	return &Ring[T]{
		shard: int32(shard),
		mask:  uint32(ceilPow2(sampleEvery) - 1),
		slots: make([]T, ceilPow2(capacity)),
	}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Sampled reports whether the CG group (or the batch whose first row
// carries it) with the given key hash is traced — the hash the switch
// already computed and the pipeline carries end to end (§6.2 hash
// reuse). Deterministic: purely a function of the hash.
//
//superfe:hotpath
func (r *Ring[T]) Sampled(hash uint32) bool {
	return r != nil && hash&r.mask == 0
}

// Record stores one element, overwriting the oldest when the ring is
// full.
//
//superfe:hotpath
func (r *Ring[T]) Record(v T) {
	if r == nil {
		return
	}
	r.slots[r.seq&uint64(len(r.slots)-1)] = v
	r.seq++
	if r.watch != nil {
		r.watch(v)
	}
}

// Seq returns the number of elements recorded so far, overwritten ones
// included.
func (r *Ring[T]) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Snapshot returns the retained elements oldest first, each stamped
// with the ring's shard and its own sequence number.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	n := r.seq
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	out := make([]T, 0, n)
	for s := r.seq - n; s < r.seq; s++ {
		out = append(out, r.slots[s&uint64(len(r.slots)-1)].stamp(r.shard, s))
	}
	return out
}

// Merge collects the retained elements of several rings in (Shard,
// Seq) order — a deterministic total order: every clock lives in a
// per-shard domain, so clocks only order events within a shard, which
// Seq already does. Nil rings contribute nothing.
func Merge[T Element[T]](rings ...*Ring[T]) []T {
	live := make([]*Ring[T], 0, len(rings))
	for _, r := range rings {
		if r != nil {
			live = append(live, r)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].shard < live[j].shard })
	var all []T
	for _, r := range live {
		all = append(all, r.Snapshot()...)
	}
	return all
}

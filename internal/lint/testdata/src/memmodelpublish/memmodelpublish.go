// Package memmodelpublish seeds memmodelpublish violations: a slot
// write published before the payload lands — the whole slot or one
// field of it — and a slot read with no acquiring load.
package memmodelpublish

import "sync/atomic"

type ring struct {
	slots []int
	mask  uint64
	tail  atomic.Uint64
	head  atomic.Uint64
}

// pushGood writes the slot, then releases it with the tail store.
//
//superfe:producer
func (r *ring) pushGood(v int) {
	t := r.tail.Load()
	r.slots[t&r.mask] = v
	r.tail.Store(t + 1)
}

// pushUnpublished stores the tail first: the payload write is never
// released, so the consumer can observe the slot before it is filled.
//
//superfe:producer
func (r *ring) pushUnpublished(v int) {
	t := r.tail.Load()
	r.tail.Store(t + 1)
	r.slots[t&r.mask] = v // want `plain write to slot field slots in //superfe:producer code is not followed by an atomic release store`
}

// popGood loads head before touching the slot.
//
//superfe:consumer
func (r *ring) popGood() int {
	h := r.head.Load()
	v := r.slots[h&r.mask]
	r.head.Store(h + 1)
	return v
}

// popUnordered reads the slot with no acquiring load at all.
//
//superfe:consumer
func (r *ring) popUnordered() int {
	v := r.slots[0] // want `plain read of slot field slots in //superfe:consumer code is not preceded by an atomic acquire load`
	r.head.Store(1)
	return v
}

// popWaived is a single-threaded drain: ordering comes from the
// caller's happens-before, not the ring protocol.
//
//superfe:consumer
func (r *ring) popWaived() int {
	//superfe:publish-ok drain runs after both goroutines joined
	return r.slots[0]
}

// cell is a slot that carries more than its payload: a control field
// rides beside the batch.
type cell struct {
	batch []int
	ctl   chan struct{}
}

type cellRing struct {
	cells []cell
	n     uint64
	tail  atomic.Uint64
}

// pushCtlGood sets the slot's control field, then releases the slot.
//
//superfe:producer
func (r *cellRing) pushCtlGood(ctl chan struct{}) {
	t := r.tail.Load()
	r.cells[t%r.n].ctl = ctl
	r.tail.Store(t + 1)
}

// pushCtlUnpublished sets the control field after the releasing store:
// the consumer may already be reading the slot.
//
//superfe:producer
func (r *cellRing) pushCtlUnpublished(ctl chan struct{}) {
	t := r.tail.Load()
	r.tail.Store(t + 1)
	r.cells[t%r.n].ctl = ctl // want `plain write to slot field cells in //superfe:producer code is not followed by an atomic release store`
}

// Package memmodelatomic seeds memmodelatomic violations: mixed
// atomic/plain access to a counter field, with the construction-phase
// and waiver exemptions exercised alongside, and by-value copies of
// lock-bearing structs.
package memmodelatomic

import (
	"sync"
	"sync/atomic"
)

type reg struct {
	vals []uint64
	n    uint64
}

func newReg() *reg {
	r := &reg{vals: make([]uint64, 8)}
	r.n = 0 // construction phase: r is function-local, no waiver needed
	return r
}

func (r *reg) inc(i int) { atomic.AddUint64(&r.vals[i], 1) }
func (r *reg) bump()     { atomic.AddUint64(&r.n, 1) }

func (r *reg) bad() uint64 {
	r.n++                // want `non-atomic access to n`
	return r.vals[0] + 1 // want `non-atomic access to vals`
}

func (r *reg) waived() uint64 {
	//superfe:atomic-ok quiescent read after the pipeline has drained
	return r.n
}

func (r *reg) size() int { return len(r.vals) } // header read: exempt

func (r *reg) sum() uint64 {
	var s uint64
	for i := range r.vals { // header read: exempt
		s += atomic.LoadUint64(&r.vals[i])
	}
	return s
}

func use() {
	r := newReg()
	r.inc(0)
	r.bump()
	_ = r.bad()
	_ = r.waived()
	_ = r.size()
	_ = r.sum()
}

// Reg mimics the obs registry: a flat value array accessed atomically
// on the hot path.
type Reg struct {
	mu   sync.Mutex
	vals []uint64
	name string
}

// Bump is the sanctioned access.
func (r *Reg) Bump(i int) {
	atomic.AddUint64(&r.vals[i], 1)
}

// Load is sanctioned too.
func (r *Reg) Load(i int) uint64 {
	return atomic.LoadUint64(&r.vals[i])
}

// Race mixes in plain accesses.
func (r *Reg) Race(i int) uint64 {
	r.vals[i]++        // want `non-atomic access to vals`
	return r.vals[i+1] // want `non-atomic access to vals`
}

// Grow is a registration-phase mutation with a stated waiver.
func (r *Reg) Grow() {
	//superfe:atomic-ok fixture: registration precedes publication
	r.vals = append(r.vals, 0)
}

// HeaderReads are exempt: len/cap/range touch only the slice header.
func (r *Reg) HeaderReads() int {
	n := len(r.vals)
	for range r.vals {
		n++
	}
	return n + cap(r.vals)
}

// Name is untouched by sync/atomic, so plain access is fine.
func (r *Reg) Name() string { return r.name }

// CopyReg copies the registry (and its mutex) by value.
func CopyReg(r Reg) int { // want `passes .*Reg by value`
	return len(r.vals)
}

// snapshot dereferences into a copy, forking the lock state.
func snapshot(r *Reg) Reg {
	cp := *r // want `copies .*Reg by value`
	return cp
}

// ByPointer is the correct shape.
func ByPointer(r *Reg) int { return len(r.vals) }

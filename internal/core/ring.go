// Lock-free single-producer/single-consumer ring for the router→shard
// hand-off — the software analogue of the NBI distributor's descriptor
// rings feeding NFP cores (§6.2). The router (single producer) and the
// shard worker (single consumer) share depth+1 slots indexed by two
// monotonically increasing sequence counters. Each slot owns one
// columnar batch for the ring's lifetime: the producer fills the slot
// it holds and publishes it in place, the consumer handles the slot it
// popped and then releases it, and the release is what hands the batch
// back. A barrier rides in the slot that carries the shard's last rows.
// No locks, no channel machinery, and no allocation on either side of
// the steady-state path.
//
// Memory ordering: the producer fills the slot, then publishes it with
// an atomic tail store; the consumer observes the tail with an atomic
// load before reading the slot, and releases it with an atomic head
// store the producer loads before refilling it. Go's sync/atomic
// operations are sequentially consistent, which subsumes the
// acquire/release pairing this protocol needs. The producer is a role,
// not a goroutine: the router's callers take turns under a
// happens-before edge (see Engine), so the producer fields have one
// writer at a time.
//
// Blocking: both sides spin briefly (yielding the processor between
// polls, which matters on single-core hosts where the peer goroutine
// needs the CPU to make progress) and then park on a futex-style
// one-slot wake channel. A parked side advertises itself in an atomic
// flag; the peer hands it exactly one wake token after the next
// publish/release, so throughput stays high under load while a drained
// ring costs no CPU.
package core

import (
	"runtime"
	"sync/atomic"

	"superfe/internal/obs"
	"superfe/internal/switchsim"
)

// ringSpin is the number of empty/full polls a side performs (yielding
// between polls) before parking on its wake channel. Small enough that
// a drained pipeline idles almost immediately; large enough that the
// steady state never parks.
const ringSpin = 128

// slot is one ring slot: the batch it owns for the ring's lifetime and
// the barrier that may ride with the batch's rows. Inline, the shard's
// one slot is handled in place and never enters a ring.
type slot struct {
	cols  *switchsim.Columns
	ctl   chan<- struct{} // barrier, worker configuration: acknowledge here once handled
	flush bool            // barrier: flush the shard's switch+NIC first
}

// spscRing is the ring. Head and tail live on their own cache lines so
// the producer's tail stores and the consumer's head stores do not
// false-share; each side keeps a cached copy of the peer's counter to
// avoid re-reading a contended line on every operation.
//
//superfe:padded
type spscRing struct {
	// slots holds depth+1 slots: at most depth published and not yet
	// released, plus the one the producer fills. n is len(slots); a
	// sequence maps to its slot by t % n, one division per batch.
	slots []slot
	n     uint64
	spin  int

	_    [64]byte // pad: slots/n are read-only after construction
	tail atomic.Uint64
	// tailCache is the consumer's last-observed tail: consumer-owned,
	// so pops only touch the shared tail line when the cache runs dry.
	tailCache uint64

	_    [64]byte
	head atomic.Uint64
	// headCache is the producer's last-observed head (producer-owned).
	headCache uint64

	_ [64]byte
	// consParked/prodParked advertise a parked side; the peer Swaps the
	// flag false and sends one token on the corresponding wake channel.
	consParked atomic.Bool
	prodParked atomic.Bool
	closed     atomic.Bool
	wakeCons   chan struct{}
	wakeProd   chan struct{}

	_ [64]byte
	// Producer-owned instrumentation (plain fields: single writer, read
	// at quiescence or by the producer itself). occHW is the occupancy
	// high watermark; prodParkEpisodes feeds the batch spans (parks
	// charged to the span's enqueue).
	occHW            uint64
	prodParkEpisodes uint64

	// Read-only after construction: the obs handles (zero values are
	// no-ops, so unwired rings cost nothing but the instr branch) and
	// the flight-recorder hook on producer parks (the router blocked
	// until the shard releases a slot), whose recorder and clock the
	// router owns.
	instr     bool
	obsOccHW  obs.Gauge
	prodParks obs.Counter
	consParks obs.Counter
	prodSpins obs.Counter
	consSpins obs.Counter
	prodWakes obs.Counter
	consWakes obs.Counter

	frProd      *obs.Ring[obs.Event]
	frProdClock *uint64
}

// newSPSCRing builds a ring of depth+1 slots, each owning a batch of
// rows rows and nfields metadata fields; the producer starts out
// holding slot 0. spin ≤ 0 selects the default poll budget.
func newSPSCRing(depth, rows, nfields, spin int) *spscRing {
	if spin <= 0 {
		spin = ringSpin
	}
	r := &spscRing{
		slots:    make([]slot, depth+1),
		n:        uint64(depth + 1),
		spin:     spin,
		wakeCons: make(chan struct{}, 1),
		wakeProd: make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].cols = switchsim.NewColumns(rows, nfields)
	}
	return r
}

// push publishes the slot the producer holds (slot 0, then each slot
// push returned) and returns the next one to fill. It first waits
// until that next slot is released — the one place the router blocks
// (backpressure toward the router) — so sp, the batch's span when it
// is sampled and nil otherwise, is charged before publication: the
// span lives inside the batch being published, so every field must be
// written before the publishing tail store. ProdParks is the park
// episodes this push cost, EnqueueOcc counts this slot against the
// fresh head, and WokeConsumer reports whether the consumer was parked
// at publish time (the publish is then what wakes it). Producer
// goroutine only.
//
//superfe:hotpath
//superfe:producer
func (r *spscRing) push(sp *obs.BatchSpan) *slot {
	t := r.tail.Load()
	// Slot t+1 is free once the consumer has released sequence t+1-n.
	if t+1-r.headCache >= r.n {
		r.headCache = r.head.Load()
		if t+1-r.headCache >= r.n {
			parks0 := r.prodParkEpisodes
			r.pushSlow(t + 1)
			if sp != nil {
				sp.ProdParks = uint32(r.prodParkEpisodes - parks0)
			}
		}
	}
	if sp != nil {
		r.headCache = r.head.Load()
		sp.EnqueueOcc = int32(t + 1 - r.headCache)
		sp.WokeConsumer = r.consParked.Load()
	}
	r.tail.Store(t + 1)
	if r.instr {
		// High-watermark occupancy: the stale headCache overestimates,
		// so refresh against the true head only when the estimate would
		// raise the watermark — amortized to nothing in steady state.
		if est := t + 1 - r.headCache; est > r.occHW {
			r.headCache = r.head.Load()
			if occ := t + 1 - r.headCache; occ > r.occHW {
				r.occHW = occ
				r.obsOccHW.Set(int64(occ))
			}
		}
	}
	if r.consParked.Load() && r.consParked.Swap(false) {
		r.wake(r.wakeCons)
		r.consWakes.Inc()
	}
	return &r.slots[(t+1)%r.n]
}

// pushSlow waits until sequence next's slot is free: spin with
// yields, then park until the consumer releases a slot.
//
//superfe:coldpath
//superfe:producer
func (r *spscRing) pushSlow(next uint64) {
	r.prodSpins.Inc()
	for i := 0; i < r.spin; i++ {
		runtime.Gosched()
		r.headCache = r.head.Load()
		if next-r.headCache < r.n {
			return
		}
	}
	for {
		r.prodParked.Store(true)
		r.headCache = r.head.Load()
		if next-r.headCache < r.n {
			// Recheck beat the park: un-advertise, draining any token
			// the consumer may already have handed us.
			r.prodParked.Store(false)
			r.drain(r.wakeProd)
			return
		}
		r.prodParkEpisodes++
		r.prodParks.Inc()
		if r.frProd != nil {
			r.frProd.Record(obs.Event{Kind: obs.FRRingPark, Clock: *r.frProdClock, Arg: int64(r.n)})
		}
		<-r.wakeProd
		r.headCache = r.head.Load()
		if next-r.headCache < r.n {
			return
		}
	}
}

// pop returns the oldest published slot. It blocks while the ring is
// empty and returns ok=false once the ring is closed and fully
// drained. The slot stays the consumer's — the producer cannot refill
// it — until release. Consumer goroutine only.
//
//superfe:hotpath
//superfe:consumer
func (r *spscRing) pop() (*slot, bool) {
	h := r.head.Load()
	if h == r.tailCache {
		r.tailCache = r.tail.Load()
		if h == r.tailCache && !r.popSlow(h) {
			return nil, false
		}
	}
	return &r.slots[h%r.n], true
}

// release hands the popped slot back to the producer, clearing the
// barrier it carried; its batch stays in the slot to be refilled.
// Consumer goroutine only, once per pop, after the slot is handled.
//
//superfe:hotpath
//superfe:consumer
func (r *spscRing) release() {
	h := r.head.Load()
	i := h % r.n
	r.slots[i].ctl, r.slots[i].flush = nil, false
	r.head.Store(h + 1)
	if r.prodParked.Load() && r.prodParked.Swap(false) {
		r.wake(r.wakeProd)
		r.prodWakes.Inc()
	}
}

// popSlow waits for the next published slot: spin with yields, then park
// until the producer publishes or closes. Returns false when the ring
// is closed and drained.
//
//superfe:coldpath
//superfe:consumer
func (r *spscRing) popSlow(h uint64) bool {
	r.consSpins.Inc()
	for i := 0; i < r.spin; i++ {
		if r.closed.Load() {
			// One final tail read decides between drained and racing
			// publish (close happens strictly after the last push).
			r.tailCache = r.tail.Load()
			return h != r.tailCache
		}
		runtime.Gosched()
		r.tailCache = r.tail.Load()
		if h != r.tailCache {
			return true
		}
	}
	for {
		r.consParked.Store(true)
		r.tailCache = r.tail.Load()
		if h != r.tailCache {
			r.consParked.Store(false)
			r.drain(r.wakeCons)
			return true
		}
		if r.closed.Load() {
			r.consParked.Store(false)
			r.drain(r.wakeCons)
			r.tailCache = r.tail.Load()
			return h != r.tailCache
		}
		r.consParks.Inc()
		<-r.wakeCons
		r.tailCache = r.tail.Load()
		if h != r.tailCache {
			return true
		}
	}
}

// close marks the ring closed and wakes a parked consumer so it can
// drain and exit. Producer side only; push must not be called after
// close.
func (r *spscRing) close() {
	r.closed.Store(true)
	// Unconditional wake: the consumer may be committing to park
	// concurrently with this close, so the token must not depend on
	// the parked flag being visible yet.
	r.wake(r.wakeCons)
}

// wake hands one token to a parked peer (capacity-1 channel: a token
// already in flight satisfies the same wake).
func (r *spscRing) wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// drain removes a stale wake token left over from a cancelled park.
func (r *spscRing) drain(ch chan struct{}) {
	select {
	case <-ch:
	default:
	}
}

// instrument wires the ring's metric handles. Call before the first
// push/pop (construction time): the handles are read-only afterwards.
func (r *spscRing) instrument(ro *obs.RingObs) {
	if ro == nil {
		return
	}
	r.instr = true
	r.obsOccHW = ro.InOccupancyHW
	r.prodParks = ro.ProdParks
	r.consParks = ro.ConsParks
	r.prodSpins = ro.ProdSpins
	r.consSpins = ro.ConsSpins
	r.prodWakes = ro.ProdWakes
	r.consWakes = ro.ConsWakes
}

// hookProdFR attaches a flight recorder to producer park episodes.
// The recorder and clock must be owned by the producer goroutine.
func (r *spscRing) hookProdFR(fr *obs.Ring[obs.Event], clock *uint64) {
	r.frProd, r.frProdClock = fr, clock
}

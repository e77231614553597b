// Lock-free single-producer/single-consumer ring for the router→shard
// hand-off — the software analogue of the NBI distributor's descriptor
// rings feeding NFP cores (§6.2). The router (single producer) and the
// shard worker (single consumer) exchange batch slots through a
// power-of-two array indexed by two monotonically increasing sequence
// counters; no locks, no channel machinery, and no allocation on
// either side of the steady-state path.
//
// Memory ordering: the producer writes the slot, then publishes it
// with an atomic tail store; the consumer observes the tail with an
// atomic load before reading the slot (and symmetrically for head on
// the recycle direction). Go's sync/atomic operations are sequentially
// consistent, which subsumes the acquire/release pairing this protocol
// needs. The producer is a role, not a goroutine: the router's callers
// take turns under a happens-before edge (see Engine), so the producer
// fields have one writer at a time.
//
// Blocking: both sides spin briefly (yielding the processor between
// polls, which matters on single-core hosts where the peer goroutine
// needs the CPU to make progress) and then park on a futex-style
// one-slot wake channel. A parked side advertises itself in an atomic
// flag; the peer hands it exactly one wake token after the next
// publish/consume, so throughput stays high under load while a drained
// ring costs no CPU.
package core

import (
	"runtime"
	"sync/atomic"

	"superfe/internal/obs"
)

// ringSpin is the number of empty/full polls a side performs (yielding
// between polls) before parking on its wake channel. Small enough that
// a drained pipeline idles almost immediately; large enough that the
// steady state never parks.
const ringSpin = 128

// spscRing is the ring. Head and tail live on their own cache lines so
// the producer's tail stores and the consumer's head stores do not
// false-share; each side keeps a cached copy of the peer's counter to
// avoid re-reading a contended line on every operation.
//
//superfe:padded
type spscRing struct {
	slots []shardMsg
	mask  uint64
	spin  int

	_    [64]byte // pad: slots/mask are read-only after construction
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
	// at quiescence or by the producer itself). occHW is the input
	// ring's occupancy high watermark; prodParkEpisodes feeds the batch
	// spans (parks charged to the span's enqueue).
	occHW            uint64
	prodParkEpisodes uint64

	// Read-only after construction: the obs handles (zero values are
	// no-ops, so unwired rings cost nothing but the instr branch) and
	// the flight-recorder hooks. frProd records producer parks (the
	// router blocked on a full input ring), frCons consumer parks (the
	// router starved on the free ring) — each side's recorder/clock is
	// owned by the goroutine driving that side, which for both wired
	// cases is the router.
	instr     bool
	obsOccHW  obs.Gauge
	prodParks obs.Counter
	consParks obs.Counter
	prodSpins obs.Counter
	consSpins obs.Counter
	prodWakes obs.Counter
	consWakes obs.Counter

	frProd      *obs.Ring[obs.Event]
	frProdKind  obs.EventKind
	frProdClock *uint64
	frCons      *obs.Ring[obs.Event]
	frConsKind  obs.EventKind
	frConsClock *uint64
}

// newSPSCRing sizes the ring to the next power of two ≥ capacity. spin
// ≤ 0 selects the default poll budget.
func newSPSCRing(capacity, spin int) *spscRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	if spin <= 0 {
		spin = ringSpin
	}
	return &spscRing{
		slots:    make([]shardMsg, n),
		mask:     uint64(n - 1),
		spin:     spin,
		wakeCons: make(chan struct{}, 1),
		wakeProd: make(chan struct{}, 1),
	}
}

// cap returns the slot capacity (a power of two).
func (r *spscRing) cap() int { return len(r.slots) }

// push publishes one message, blocking while the ring is full
// (backpressure toward the router). Producer goroutine only.
//
//superfe:hotpath
//superfe:producer
func (r *spscRing) push(m shardMsg) {
	t := r.tail.Load()
	if t-r.headCache >= uint64(len(r.slots)) {
		r.headCache = r.head.Load()
		if t-r.headCache >= uint64(len(r.slots)) {
			r.pushSlow(t)
		}
	}
	r.slots[t&r.mask] = m
	r.tail.Store(t + 1)
	r.published(t)
}

// pushTraced is push for a span-sampled batch: it additionally fills
// the span's enqueue-evidence fields. The span lives inside the batch
// being pushed, so every field must be written before the publishing
// tail store — which is why the evidence is gathered producer-side,
// pre-publication: occupancy counts this slot against the fresh head,
// ProdParks is the park episodes this push itself cost, and
// WokeConsumer reports whether the consumer was parked at publish
// time (the publish is then what wakes it).
//
//superfe:hotpath
//superfe:producer
func (r *spscRing) pushTraced(m shardMsg, sp *obs.BatchSpan) {
	t := r.tail.Load()
	if t-r.headCache >= uint64(len(r.slots)) {
		r.headCache = r.head.Load()
		if t-r.headCache >= uint64(len(r.slots)) {
			parks0 := r.prodParkEpisodes
			r.pushSlow(t)
			sp.ProdParks = uint32(r.prodParkEpisodes - parks0)
		}
	}
	r.headCache = r.head.Load()
	sp.EnqueueOcc = int32(t + 1 - r.headCache)
	sp.WokeConsumer = r.consParked.Load()
	r.slots[t&r.mask] = m
	r.tail.Store(t + 1)
	r.published(t)
}

// published maintains the occupancy high watermark and wakes a parked
// consumer — the common back half of push and pushTraced. The callers
// keep the slot write and the releasing tail store inline
// (store-index-then-release is their own contract); this runs after
// the message is already visible.
//
//superfe:hotpath
//superfe:producer
func (r *spscRing) published(t uint64) {
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
}

// pushSlow waits for a free slot: spin with yields, then park until
// the consumer signals progress.
//
//superfe:coldpath
//superfe:producer
func (r *spscRing) pushSlow(t uint64) {
	r.prodSpins.Inc()
	for i := 0; i < r.spin; i++ {
		runtime.Gosched()
		r.headCache = r.head.Load()
		if t-r.headCache < uint64(len(r.slots)) {
			return
		}
	}
	for {
		r.prodParked.Store(true)
		r.headCache = r.head.Load()
		if t-r.headCache < uint64(len(r.slots)) {
			// Recheck beat the park: un-advertise, draining any token
			// the consumer may already have handed us.
			r.prodParked.Store(false)
			r.drain(r.wakeProd)
			return
		}
		r.prodParkEpisodes++
		r.prodParks.Inc()
		if r.frProd != nil {
			r.frProd.Record(obs.Event{Kind: r.frProdKind, Clock: *r.frProdClock, Arg: int64(len(r.slots))})
		}
		<-r.wakeProd
		r.headCache = r.head.Load()
		if t-r.headCache < uint64(len(r.slots)) {
			return
		}
	}
}

// pop removes the next message. It blocks while the ring is empty and
// returns ok=false once the ring is closed and fully drained. Consumer
// goroutine only.
//
//superfe:hotpath
//superfe:consumer
func (r *spscRing) pop() (shardMsg, bool) {
	h := r.head.Load()
	if h == r.tailCache {
		r.tailCache = r.tail.Load()
		if h == r.tailCache && !r.popSlow(h) {
			return shardMsg{}, false
		}
	}
	m := r.slots[h&r.mask]
	r.slots[h&r.mask] = shardMsg{} // drop references for the recycler
	r.head.Store(h + 1)
	if r.prodParked.Load() && r.prodParked.Swap(false) {
		r.wake(r.wakeProd)
		r.prodWakes.Inc()
	}
	return m, true
}

// popSlow waits for the next message: spin with yields, then park
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
		if r.frCons != nil {
			r.frCons.Record(obs.Event{Kind: r.frConsKind, Clock: *r.frConsClock})
		}
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

// instrumentIn wires a shard input ring's metric handles. Call before
// the first push/pop (construction time): the handles are read-only
// afterwards.
func (r *spscRing) instrumentIn(ro *obs.RingObs) {
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

// instrumentFree wires a recycle ring: its consumer is the router, so
// a consumer park there means the whole pipeline is starved of free
// batches. Only that counter is wired — occupancy and the producer
// side carry no signal (capacity exceeds the batch population by
// construction, so the shard's pushes never block).
func (r *spscRing) instrumentFree(ro *obs.RingObs) {
	if ro == nil {
		return
	}
	r.consParks = ro.FreeStarvation
}

// hookProdFR attaches a flight recorder to producer park episodes.
// The recorder and clock must be owned by the producer goroutine.
func (r *spscRing) hookProdFR(fr *obs.Ring[obs.Event], kind obs.EventKind, clock *uint64) {
	r.frProd, r.frProdKind, r.frProdClock = fr, kind, clock
}

// hookConsFR attaches a flight recorder to consumer park episodes.
// The recorder and clock must be owned by the consumer goroutine.
func (r *spscRing) hookConsFR(fr *obs.Ring[obs.Event], kind obs.EventKind, clock *uint64) {
	r.frCons, r.frConsKind, r.frConsClock = fr, kind, clock
}

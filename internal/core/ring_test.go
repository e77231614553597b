package core

// SPSC ring property tests: FIFO order, wrap-around, full/empty
// boundary behaviour, the barrier riding in its slot, close semantics,
// and park/wake liveness with a tiny spin budget so both sides exercise
// the futex-style slow path. The concurrent tests are the interesting
// ones under -race: the ring's only synchronization is the atomic
// head/tail protocol.

import (
	"fmt"
	"testing"
	"time"

	"superfe/internal/obs"
)

// ringProducer drives the ring's producer side the way the router
// does: it fills the slot it holds and publishes it in place. The
// batch's row count carries a sequence number, so order is observable
// on the pop side.
type ringProducer struct {
	r   *spscRing
	cur *slot
}

func newRingProducer(r *spscRing) *ringProducer { return &ringProducer{r: r, cur: &r.slots[0]} }

func (p *ringProducer) push(seq int) { p.pushTraced(seq, nil) }

func (p *ringProducer) pushTraced(seq int, sp *obs.BatchSpan) {
	p.cur.cols.N = seq
	p.cur = p.r.push(sp)
}

// popSeq pops, reads the sequence number and releases the slot.
func popSeq(r *spscRing) (int, bool) {
	s, ok := r.pop()
	if !ok {
		return -1, false
	}
	seq := s.cols.N
	r.release()
	return seq, true
}

// TestRingCapacityIsDepthPlusOne: depth in-flight slots plus the one
// the producer fills, not rounded up, each owning its own batch, and
// the producer starts out holding slot 0.
func TestRingCapacityIsDepthPlusOne(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 4, 7} {
		r := newSPSCRing(depth, 4, 2, 0)
		if len(r.slots) != depth+1 || r.n != uint64(depth+1) {
			t.Errorf("depth %d: %d slots (n=%d), want %d", depth, len(r.slots), r.n, depth+1)
		}
		seen := map[any]bool{}
		for i := range r.slots {
			c := r.slots[i].cols
			if c == nil || len(c.KeyA) != 4 || seen[c] {
				t.Fatalf("depth %d: slot %d batch %p is missing, mis-sized or shared", depth, i, c)
			}
			seen[c] = true
		}
		p := newRingProducer(r)
		for i := 0; i < depth; i++ {
			p.push(i) // depth publishes never block
		}
		if got := p.cur; got != &r.slots[depth] {
			t.Errorf("depth %d: producer holds slot %p after %d pushes, want the last slot", depth, got, depth)
		}
	}
}

// TestRingFIFOWrapAround cycles a small ring far past its capacity on
// one goroutine: every pop must return the oldest push, in the very
// slot it was published in, across many index wraps.
func TestRingFIFOWrapAround(t *testing.T) {
	const depth = 3
	r := newSPSCRing(depth, 1, 0, 0)
	p := newRingProducer(r)
	next := 0
	for cycle := 0; cycle < 100; cycle++ {
		var pushed [depth]*slot
		for i := 0; i < depth; i++ {
			pushed[i] = p.cur
			p.push(cycle*depth + i)
		}
		for i := 0; i < depth; i++ {
			s, ok := r.pop()
			if !ok {
				t.Fatal("pop returned closed on an open ring")
			}
			if s != pushed[i] || s.cols.N != next {
				t.Fatalf("cycle %d: popped seq %d from %p, want seq %d from %p", cycle, s.cols.N, s, next, pushed[i])
			}
			r.release()
			next++
		}
	}
}

// TestRingFullBlocksUntilRelease pins the full boundary: depth pushes
// complete immediately; the next waits — before publishing — until the
// slot it would take next is released, and a popped but unreleased
// slot still counts as held. The span of the blocked push is charged
// with the park it cost.
func TestRingFullBlocksUntilRelease(t *testing.T) {
	r := newSPSCRing(2, 1, 0, 1)
	p := newRingProducer(r)
	p.push(0)
	p.push(1) // full, but must not block
	var sp obs.BatchSpan
	pushed := make(chan struct{})
	//superfe:goroutine-ok test helper: joined via the pushed channel below
	go func() {
		p.pushTraced(2, &sp) // blocks until slot 0 is released
		close(pushed)
	}()
	blocked := func(what string) {
		t.Helper()
		select {
		case <-pushed:
			t.Fatalf("push into a full ring returned %s", what)
		case <-time.After(20 * time.Millisecond):
		}
		if tail := r.tail.Load(); tail != 2 {
			t.Fatalf("blocked push published before its next slot was free (tail %d, want 2)", tail)
		}
	}
	blocked("before any pop")
	s, ok := r.pop()
	if !ok || s.cols.N != 0 {
		t.Fatalf("pop = %v,%v; want seq 0", s, ok)
	}
	blocked("while the popped slot was still unreleased")
	r.release()
	select {
	case <-pushed:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked push not woken by release")
	}
	if sp.ProdParks == 0 {
		t.Error("the blocked push's span was not charged with its park")
	}
	for want := 1; want <= 2; want++ {
		if got, ok := popSeq(r); !ok || got != want {
			t.Fatalf("pop = %d,%v; want seq %d", got, ok, want)
		}
	}
}

// TestRingEmptyBlocksUntilPush pins the empty boundary: pop parks on
// an empty ring and wakes on the next publish.
func TestRingEmptyBlocksUntilPush(t *testing.T) {
	r := newSPSCRing(4, 1, 0, 1)
	got := make(chan int, 1)
	//superfe:goroutine-ok test helper: joined via the got channel below
	go func() {
		seq, _ := popSeq(r)
		got <- seq
	}()
	select {
	case v := <-got:
		t.Fatalf("pop on an empty ring returned %d before any push", v)
	case <-time.After(20 * time.Millisecond):
	}
	newRingProducer(r).push(7)
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("woken pop returned %d, want 7", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked pop not woken by push")
	}
}

// TestRingBarrierRidesInSlot: a barrier is two fields of the slot that
// carries the shard's last rows — with rows or without — and release
// clears them, so the slot comes back to the producer as a plain batch.
func TestRingBarrierRidesInSlot(t *testing.T) {
	r := newSPSCRing(2, 4, 0, 1)
	p := newRingProducer(r)
	ack := make(chan struct{}, 1)
	for _, rows := range []int{3, 0} {
		held := p.cur
		held.ctl, held.flush = ack, true
		p.push(rows)
		s, ok := r.pop()
		if !ok || s != held || s.cols.N != rows || s.ctl == nil || !s.flush {
			t.Fatalf("rows=%d: popped %+v,%v; want the barrier slot with its rows", rows, s, ok)
		}
		r.release()
		if s.ctl != nil || s.flush {
			t.Fatalf("rows=%d: release left the barrier in the slot: %+v", rows, s)
		}
	}
}

// TestRingCloseSemantics: close lets the consumer drain the residue,
// then pop reports ok=false forever.
func TestRingCloseSemantics(t *testing.T) {
	r := newSPSCRing(4, 1, 0, 1)
	p := newRingProducer(r)
	for i := 0; i < 3; i++ {
		p.push(i)
	}
	r.close()
	for i := 0; i < 3; i++ {
		if got, ok := popSeq(r); !ok || got != i {
			t.Fatalf("drain pop %d = %d,%v", i, got, ok)
		}
	}
	for i := 0; i < 2; i++ {
		if _, ok := r.pop(); ok {
			t.Fatal("pop on a closed drained ring returned ok")
		}
	}
}

// TestRingCloseWakesParkedConsumer: a consumer parked on an empty ring
// must observe a concurrent close and exit rather than sleep forever.
func TestRingCloseWakesParkedConsumer(t *testing.T) {
	r := newSPSCRing(2, 1, 0, 1)
	done := make(chan bool, 1)
	//superfe:goroutine-ok test helper: joined via the done channel below
	go func() {
		_, ok := r.pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer park
	r.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop on a closed empty ring returned ok")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake the parked consumer")
	}
}

// TestRingParkWakeLiveness is the concurrent stress: a tiny ring and a
// one-poll spin budget force both sides through the park/wake slow
// path constantly. FIFO order must hold end to end and neither side
// may lose a wakeup (the test would time out). Run under -race this
// also checks that a slot's publication and its release each order
// the side that touches the batch next.
func TestRingParkWakeLiveness(t *testing.T) {
	const total = 20000
	r := newSPSCRing(1, 1, 0, 1)
	done := make(chan error, 1)
	//superfe:goroutine-ok test helper: joined via the done channel below
	go func() {
		for i := 0; i < total; i++ {
			got, ok := popSeq(r)
			if !ok {
				done <- errSeq("ring closed early at", i)
				return
			}
			if got != i {
				done <- errSeq("out of order at", i)
				return
			}
		}
		if _, ok := r.pop(); ok {
			done <- errSeq("extra message after", total)
			return
		}
		done <- nil
	}()
	p := newRingProducer(r)
	for i := 0; i < total; i++ {
		p.push(i)
	}
	r.close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("park/wake liveness stress timed out (lost wakeup?)")
	}
}

func errSeq(msg string, i int) error { return fmt.Errorf("%s %d", msg, i) }

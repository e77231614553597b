package serve

import (
	"errors"
	"net"
	"os"
	"sync"
	"time"

	"superfe/internal/gpv"
	"superfe/internal/obs"
)

// Egress bounds. They are constants, not configuration: each is sized
// against a property of the mechanism (DESIGN.md §7 argues them), not
// of a deployment.
const (
	// egressBufBytes bounds each of a subscriber's two buffers (the one
	// emit fills and the one its writer's Write holds), so a
	// subscriber's backlog is at most twice this. Buffers start empty
	// and grow on demand; an idle or trickling stream never reaches the
	// bound.
	egressBufBytes = 256 << 10
	// egressWriteDeadline is the longest one Write may take before its
	// subscriber is disconnected — and with it the longest a full
	// backlog can hold up the tenant's dataplane.
	egressWriteDeadline = 2 * time.Second
	// egressGoodbyeDeadline bounds the best-effort FrameError that tells
	// a disconnected subscriber why; nothing waits on it but Stop.
	egressGoodbyeDeadline = 100 * time.Millisecond
)

// dropReason names why a subscriber was disconnected. reasonNone is the
// server ending the stream itself (tenant Stop, or a protocol error it
// has already answered): the backlog drains first and nothing is
// discarded.
type dropReason uint8

const (
	reasonNone dropReason = iota
	reasonError
	reasonDeadline
	reasonPeerClosed
	numReasons
)

func (r dropReason) String() string {
	return [numReasons]string{"", "error", "deadline", "peer-closed"}[r]
}

// EgressStats counts one subscriber's — or, rolled up, one tenant's —
// vector output. At an egress barrier (Flush) VectorsEnqueued equals
// VectorsWritten + VectorsDiscarded, and Writes against VectorsWritten
// reads as the coalescing factor.
type EgressStats struct {
	// VectorsEnqueued counts (vector, subscriber) pairs accepted into a
	// backlog; VectorsWritten those a completed Write carried;
	// VectorsDiscarded those dropped with the backlog at a disconnect.
	VectorsEnqueued  uint64 `json:"vectors_enqueued"`
	VectorsWritten   uint64 `json:"vectors_written"`
	VectorsDiscarded uint64 `json:"vectors_discarded"`
	// Bytes and Writes count completed socket writes.
	Bytes  uint64 `json:"bytes"`
	Writes uint64 `json:"writes"`
	// EmitWaits and EmitWaitNS count the times, and the time, the
	// dataplane waited on a full backlog.
	EmitWaits  uint64 `json:"emit_waits"`
	EmitWaitNS uint64 `json:"emit_wait_ns"`
}

// Disconnects counts a tenant's dropped subscribers by reason.
type Disconnects struct {
	Error      uint64 `json:"error"`
	Deadline   uint64 `json:"deadline"`
	PeerClosed uint64 `json:"peer_closed"`
}

// SubscriberInfo is one live subscriber's row in TenantInfo.
type SubscriberInfo struct {
	Peer string `json:"peer"`
	EgressStats
}

// egressCounters is a tenant's egress rollup, kept in an obs registry
// so the same numbers feed GET /tenants and the tenant's scrape. Each
// subscriber event adds to these at the moment it is counted on the
// subscriber, so the rollup balances whenever the subscribers do.
type egressCounters struct {
	reg                                                           *obs.Registry
	enqueued, written, discarded, bytes, writes, waits, waitNanos obs.Counter
	disconnects                                                   [numReasons]obs.Counter
}

func newEgressCounters() *egressCounters {
	r := obs.NewRegistry()
	const vectors = "superfe_serve_egress_vectors_total"
	const vectorsHelp = "feature vectors per subscriber: enqueued into a backlog, written to its socket, discarded at its disconnect"
	c := &egressCounters{
		reg:       r,
		enqueued:  r.Counter(vectors, vectorsHelp, obs.L("state", "enqueued")),
		written:   r.Counter(vectors, vectorsHelp, obs.L("state", "written")),
		discarded: r.Counter(vectors, vectorsHelp, obs.L("state", "discarded")),
		bytes:     r.Counter("superfe_serve_egress_bytes_total", "bytes written to subscriber sockets"),
		writes:    r.Counter("superfe_serve_egress_writes_total", "completed subscriber socket writes (vectors written / writes = coalescing factor)"),
		waits:     r.Counter("superfe_serve_egress_emit_waits_total", "times the dataplane waited on a full subscriber backlog"),
		waitNanos: r.Counter("superfe_serve_egress_emit_wait_ns_total", "time the dataplane spent waiting on full subscriber backlogs"),
	}
	for reason := reasonError; reason < numReasons; reason++ {
		c.disconnects[reason] = r.Counter("superfe_serve_egress_disconnects_total",
			"subscribers disconnected by the server, by reason", obs.L("reason", reason.String()))
	}
	r.Seal()
	return c
}

// read returns the rollup in its JSON shapes.
func (c *egressCounters) read() (EgressStats, Disconnects) {
	v := c.reg.Snapshot().Vals // registration order
	return EgressStats{
		VectorsEnqueued: v[0], VectorsWritten: v[1], VectorsDiscarded: v[2],
		Bytes: v[3], Writes: v[4], EmitWaits: v[5], EmitWaitNS: v[6],
	}, Disconnects{Error: v[7], Deadline: v[8], PeerClosed: v[9]}
}

// subscriber is one vector output stream and the whole of the egress
// mechanism: emit appends framed bytes to fill under mu, and the
// subscriber's writer goroutine swaps fill with its other buffer and
// issues one Write for everything that accumulated while the previous
// Write was in flight. That is group commit: no timer, an idle stream
// sees each vector at once, a burst coalesces by itself.
//
// The contract is lossless-or-disconnected. A full backlog makes emit
// wait for the writer; the writer's Write carries egressWriteDeadline;
// a subscriber that misses it, errors, or hangs up is shut: its
// backlog is discarded and counted, its connection closed.
type subscriber struct {
	t    *Tenant
	conn net.Conn
	// done is closed when the writer has exited, which is after the
	// subscriber left the tenant's set and its connection was closed.
	done chan struct{}

	mu sync.Mutex
	// cond (on mu) is broadcast on every change a party can be parked
	// on: fill going non-empty (the writer), the writer taking fill
	// (an emit on a full backlog), a Write completing (a barrier), and
	// shut (all of them).
	cond sync.Cond
	// fill holds framed bytes not yet handed to a Write, fillVecs the
	// FrameVector frames among them; spare is the other buffer, nil
	// while a Write holds it.
	fill     []byte
	fillVecs uint64
	spare    []byte
	// enq and fin count bytes ever enqueued and bytes finished with
	// (written, or discarded at shut); a barrier waits for fin to reach
	// the enq it saw. The writer exits only with fin == enq.
	enq, fin uint64
	// closing is set once by shut: emit enqueues nothing further and
	// the writer exits when fill is empty.
	closing bool
	reason  dropReason
	// gone is set when the writer leaves its loop: the stream ended the
	// way reason says, and a later shut (the handler noticing the closed
	// connection) changes nothing.
	gone  bool
	stats EgressStats
}

func newSubscriber(t *Tenant, conn net.Conn) *subscriber {
	s := &subscriber{t: t, conn: conn, done: make(chan struct{})}
	s.cond.L = &s.mu
	return s
}

// enqueue appends one framed message — vecs FrameVector frames, or a
// control frame with vecs == 0 — to the backlog, waiting for the
// writer while the backlog is full. It reports false, having enqueued
// nothing, once the subscriber is shut.
//
//superfe:hotpath
func (s *subscriber) enqueue(frame []byte, vecs uint64) bool {
	s.mu.Lock()
	if s.full(len(frame)) {
		s.waitForRoom(len(frame))
	}
	if s.closing {
		s.mu.Unlock()
		return false
	}
	if len(s.fill) == 0 {
		s.cond.Broadcast()
	}
	s.fill = append(s.fill, frame...)
	s.fillVecs += vecs
	s.enq += uint64(len(frame))
	s.stats.VectorsEnqueued += vecs
	s.mu.Unlock()
	return true
}

// full reports whether an n-byte frame must wait for the writer (mu
// held). An empty fill always accepts, so a frame larger than the bound
// cannot wait forever; a shut subscriber never makes anyone wait.
func (s *subscriber) full(n int) bool {
	return len(s.fill) > 0 && len(s.fill)+n > egressBufBytes && !s.closing
}

// waitForRoom parks the caller (with mu held) until the writer has
// taken fill or the subscriber is shut — at most one Write, so at most
// egressWriteDeadline.
//
//superfe:coldpath
func (s *subscriber) waitForRoom(n int) {
	t0 := time.Now()
	for s.full(n) {
		s.cond.Wait()
	}
	ns := uint64(time.Since(t0))
	s.stats.EmitWaits++
	s.stats.EmitWaitNS += ns
	s.t.egress.waits.Inc()
	s.t.egress.waitNanos.Add(ns)
}

// shut ends the stream from outside the writer; shutLocked says whose
// reason stands. With reasonNone the writer drains the backlog and
// exits; with any other reason the backlog is discarded and counted
// and the connection closed at once, which also fails a Write in
// flight. Safe from any goroutine.
func (s *subscriber) shut(reason dropReason) {
	s.mu.Lock()
	first := s.shutLocked(reason)
	s.mu.Unlock()
	if first && reason != reasonNone {
		// The error is of no use: the stream is over either way, and the
		// writer closes the connection again on its way out.
		_ = s.conn.Close()
	}
}

// shutLocked marks the subscriber shut (mu held) and reports whether
// this call's reason stands: the first does, and a disconnect still
// overrides a drain the writer has not finished.
func (s *subscriber) shutLocked(reason dropReason) bool {
	if s.gone || s.closing && (s.reason != reasonNone || reason == reasonNone) {
		return false
	}
	s.closing, s.reason = true, reason
	if reason != reasonNone {
		s.t.egress.disconnects[reason].Inc()
		s.discard(uint64(len(s.fill)), s.fillVecs)
		s.fill, s.fillVecs = s.fill[:0], 0
	}
	s.cond.Broadcast()
	return true
}

// discard counts bytes and vectors dropped with the backlog (mu held).
func (s *subscriber) discard(bytes, vecs uint64) {
	s.fin += bytes
	s.stats.VectorsDiscarded += vecs
	s.t.egress.discarded.Add(vecs)
}

// await blocks until everything enqueued before the call has been
// written or discarded.
func (s *subscriber) await() {
	s.mu.Lock()
	for target := s.enq; s.fin < target; {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// writeLoop is the subscriber's writer goroutine. It exits once the
// subscriber is shut and its backlog is gone, then leaves the tenant's
// set, says goodbye if that can still be parsed, and closes the
// connection so both the peer and the connection's handler see the end.
func (s *subscriber) writeLoop() {
	defer close(s.done)
	// goodbye: the writer's own failed Write shut the subscriber and
	// stopped on a frame boundary, so the connection is still open and a
	// final FrameError can still be parsed by the peer.
	goodbye := false
	s.mu.Lock()
	for {
		for len(s.fill) == 0 && !s.closing {
			s.cond.Wait()
		}
		if len(s.fill) == 0 {
			break
		}
		buf, vecs := s.fill, s.fillVecs
		s.fill, s.fillVecs, s.spare = s.spare[:0], 0, nil
		s.cond.Broadcast()
		s.mu.Unlock()

		n, err := s.write(buf, egressWriteDeadline)

		s.mu.Lock()
		s.spare = buf
		if err != nil {
			// Vectors in a failed Write are not delivered: whatever part
			// of buf reached the peer, it was told nothing after it.
			s.discard(uint64(len(buf)), vecs)
			reason := reasonError
			if errors.Is(err, os.ErrDeadlineExceeded) {
				reason = reasonDeadline
			}
			// Lost to an earlier shut, the connection is already closed
			// and there is nobody to say goodbye to.
			goodbye = s.shutLocked(reason) && onFrameBoundary(buf, n)
		} else {
			s.fin += uint64(len(buf))
			s.stats.VectorsWritten += vecs
			s.stats.Bytes += uint64(len(buf))
			s.stats.Writes++
			s.t.egress.written.Add(vecs)
			s.t.egress.bytes.Add(uint64(len(buf)))
			s.t.egress.writes.Inc()
		}
		s.cond.Broadcast()
	}
	s.gone = true
	reason := s.reason
	s.mu.Unlock()

	s.t.remove(s)
	if goodbye {
		// Best effort: a peer that stopped reading will not read this
		// either.
		if frame, err := gpv.AppendFrame(nil, FrameError, []byte("subscriber disconnected: "+reason.String())); err == nil {
			_, _ = s.write(frame, egressGoodbyeDeadline)
		}
	}
	// Closing twice is harmless; the handler's deferred Close follows.
	_ = s.conn.Close()
}

// write issues one deadline-bounded Write.
func (s *subscriber) write(b []byte, deadline time.Duration) (int, error) {
	if err := s.conn.SetWriteDeadline(time.Now().Add(deadline)); err != nil {
		return 0, err
	}
	return s.conn.Write(b)
}

// onFrameBoundary reports whether the first n bytes of buf — whole
// frames back to back — end exactly at the end of a frame.
func onFrameBoundary(buf []byte, n int) bool {
	off := 0
	for off < n {
		_, _, size, err := gpv.DecodeFrame(buf[off:])
		if err != nil {
			return false
		}
		off += size
	}
	return off == n
}

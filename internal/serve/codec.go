// Package serve turns the batch SuperFE engine into a resident
// multi-tenant service: a streaming ingest protocol (length-prefixed
// packet frames over TCP or a unix socket, carried in the gpv frame
// layer), a per-tenant registry where each tenant owns a policy, a
// compiled plan and a dedicated engine, planvet/planprove-
// gated hot reload that swaps plans at a batch barrier, per-tenant
// feature-vector output streams, and lifecycle endpoints grafted onto
// the obs admin surface.
//
// This file is the wire codec: the protocol's frame kinds, the fixed
// packet record the ingest frames batch, and the vector record the
// subscription frames carry. The frame layer itself (magic, version,
// bounded length) lives in internal/gpv; serve only owns the kind
// space and the payload encodings, so the transport framing can
// version independently of the protocol.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
)

// Ingest-protocol frame kinds, carried in the gpv frame header's kind
// byte. Client→server kinds bind, feed and control a tenant;
// server→client kinds answer and stream.
const (
	// FrameHello binds the connection to a tenant; payload = tenant
	// name (UTF-8). Must be the first frame on every connection. The
	// server answers FrameOK or FrameError.
	FrameHello uint8 = 1
	// FramePackets carries a batch of fixed-size packet records
	// (PacketWireBytes each, no padding). No acknowledgement — flow
	// control is the transport's; FrameFlush is the sync point.
	FramePackets uint8 = 2
	// FrameFlush asks the tenant to flush its engine (drain shards,
	// evict resident groups, emit every pending vector). The server
	// answers FrameOK once the flush barrier has completed.
	FrameFlush uint8 = 3
	// FrameSubscribe turns the connection into the tenant's vector
	// output stream: after the FrameOK acknowledgement the server
	// writes one FrameVector per emitted feature vector. A second
	// FrameSubscribe on the connection is a protocol error.
	FrameSubscribe uint8 = 4
	// FrameVector carries one feature vector (server→subscriber).
	FrameVector uint8 = 5
	// FrameOK acknowledges FrameHello, FrameFlush or FrameSubscribe.
	FrameOK uint8 = 6
	// FrameError reports a fatal protocol or tenant error; payload =
	// message (UTF-8). The server closes the connection after it.
	FrameError uint8 = 7
)

// PacketWireBytes is the fixed size of one packet record inside a
// FramePackets payload: the five-tuple (13 B), the switch metadata
// timestamp (8 B), size (4 B), TCP flags (1 B), TTL (1 B) and ingress
// port (2 B), all big-endian.
const PacketWireBytes = 29

// Packet-record codec errors.
var (
	// ErrPacketPayload marks a FramePackets payload whose length is
	// not a whole number of packet records — a truncated or corrupt
	// batch; the records cannot be trusted.
	ErrPacketPayload = errors.New("serve: packets payload is not a whole number of records")
	// ErrVectorPayload marks a FrameVector payload too short for its
	// header or whose declared dimension disagrees with its length.
	ErrVectorPayload = errors.New("serve: malformed vector payload")
)

// AppendPacket appends one wire-encoded packet record to dst.
func AppendPacket(dst []byte, p *packet.Packet) []byte {
	var b [PacketWireBytes]byte
	flowkey.PutTuple(b[:], p.Tuple)
	binary.BigEndian.PutUint64(b[13:21], uint64(p.Timestamp))
	binary.BigEndian.PutUint32(b[21:25], p.Size)
	b[25] = uint8(p.Flags)
	b[26] = p.TTL
	binary.BigEndian.PutUint16(b[27:29], p.Ingress)
	return append(dst, b[:]...)
}

// DecodePackets appends every packet record in a FramePackets payload
// to dst and returns the extended slice. The payload must be a whole
// number of records; on ErrPacketPayload dst is returned unchanged.
func DecodePackets(dst []packet.Packet, payload []byte) ([]packet.Packet, error) {
	if len(payload)%PacketWireBytes != 0 {
		return dst, fmt.Errorf("%w: %d bytes", ErrPacketPayload, len(payload))
	}
	for off := 0; off < len(payload); off += PacketWireBytes {
		b := payload[off : off+PacketWireBytes]
		dst = append(dst, packet.Packet{
			Tuple:     flowkey.GetTuple(b),
			Timestamp: int64(binary.BigEndian.Uint64(b[13:21])),
			Size:      binary.BigEndian.Uint32(b[21:25]),
			Flags:     packet.TCPFlags(b[25]),
			TTL:       b[26],
			Ingress:   binary.BigEndian.Uint16(b[27:29]),
		})
	}
	return dst, nil
}

// vectorHdrBytes is the fixed prefix of a FrameVector payload: the
// group key (granularity byte + five-tuple), the emission timestamp
// and the dimension.
const vectorHdrBytes = 1 + flowkey.TupleWireBytes + 8 + 4

// AppendVector appends one wire-encoded feature vector to dst:
// key granularity (1 B), key tuple (13 B), timestamp (8 B), dimension
// (4 B), then dimension float64 values, all big-endian.
func AppendVector(dst []byte, v *feature.Vector) []byte {
	n := len(dst)
	dst = slices.Grow(dst, vectorHdrBytes+8*len(v.Values))[:n+vectorHdrBytes+8*len(v.Values)]
	b := dst[n:]
	b[0] = uint8(v.Key.Gran)
	flowkey.PutTuple(b[1:], v.Key.Tuple)
	binary.BigEndian.PutUint64(b[14:22], uint64(v.Timestamp))
	binary.BigEndian.PutUint32(b[22:26], uint32(len(v.Values)))
	b = b[vectorHdrBytes:]
	for i, x := range v.Values {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return dst
}

// appendVectorFrame appends one complete FrameVector frame — gpv frame
// header and vector payload — to dst, encoding the vector in place
// behind a reserved header whose length is patched once the payload is
// known: the egress path frames each vector exactly once, with no
// intermediate payload buffer. The payload bound needs no check here:
// vetPlan refuses a policy whose vectors would not fit a frame.
func appendVectorFrame(dst []byte, v *feature.Vector) []byte {
	start := len(dst)
	dst = append(dst, gpv.FrameMagic, gpv.FrameVersion, FrameVector, 0, 0, 0, 0, 0)
	dst = AppendVector(dst, v)
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(dst)-start-gpv.FrameHeaderBytes))
	return dst
}

// DecodeVectorInto decodes one FrameVector payload with Values stored
// in dst's backing array (grown when its capacity is short). The
// caller that passes the returned Values back as the next dst decodes
// a stream without allocating; the vector is then valid only until
// that next call.
func DecodeVectorInto(dst []float64, payload []byte) (feature.Vector, error) {
	if len(payload) < vectorHdrBytes {
		return feature.Vector{}, fmt.Errorf("%w: %d bytes", ErrVectorPayload, len(payload))
	}
	dim := int(binary.BigEndian.Uint32(payload[22:26]))
	if len(payload) != vectorHdrBytes+8*dim {
		return feature.Vector{}, fmt.Errorf("%w: dim %d vs %d bytes", ErrVectorPayload, dim, len(payload))
	}
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	v := feature.Vector{
		Key: flowkey.Key{
			Gran:  flowkey.Granularity(payload[0]),
			Tuple: flowkey.GetTuple(payload[1:]),
		},
		Timestamp: int64(binary.BigEndian.Uint64(payload[14:22])),
		Values:    dst[:dim],
	}
	for i := range v.Values {
		v.Values[i] = math.Float64frombits(binary.BigEndian.Uint64(payload[vectorHdrBytes+8*i:]))
	}
	return v, nil
}

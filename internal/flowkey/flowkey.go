// Package flowkey defines the grouping keys used throughout SuperFE.
//
// The paper's policy interface (§4, Appendix A) supports four grouping
// granularities: flow (the 5-tuple), host (source IP), channel (the
// IP pair), and socket (the 5-tuple with direction information).
// Granularities form dependency chains — host ⊃ channel ⊃ socket —
// which the MGPV cache in the switch exploits (§5.1): packets are
// grouped at the coarsest granularity (CG) while each packet's feature
// record points at its finest-granularity (FG) key, from which every
// intermediate granularity can be recovered on the SmartNIC.
//
//superfe:deterministic
package flowkey

import (
	"encoding/binary"
	"fmt"
)

// Granularity identifies one of the grouping levels supported by the
// groupby operator.
type Granularity uint8

const (
	// GranFlow groups packets by the 5-tuple without recording
	// per-packet direction.
	GranFlow Granularity = iota
	// GranHost groups packets by source IP and records direction.
	GranHost
	// GranChannel groups packets by the (srcIP, dstIP) pair and
	// records direction.
	GranChannel
	// GranSocket groups packets by the 5-tuple and records direction.
	GranSocket
)

// String returns the policy-language spelling of the granularity.
func (g Granularity) String() string {
	switch g {
	case GranFlow:
		return "flow"
	case GranHost:
		return "host"
	case GranChannel:
		return "channel"
	case GranSocket:
		return "socket"
	}
	return fmt.Sprintf("granularity(%d)", uint8(g))
}

// Directional reports whether the granularity records per-packet
// direction information (Appendix A: host, channel and socket do;
// flow does not).
func (g Granularity) Directional() bool {
	return g == GranHost || g == GranChannel || g == GranSocket
}

// Coarser reports whether g is strictly coarser than other on the
// canonical dependency chain host ⊃ channel ⊃ socket ⊃ flow. Socket
// and flow are both keyed by the 5-tuple, but a socket group is the
// canonicalised tuple and therefore contains both raw-tuple
// orientations — i.e. both flow groups of the conversation. Ordering
// socket before flow keeps the chain's containment invariant: every
// packet of one FG group maps to exactly one CG group, which the
// parallel engine's CG-hash sharding (and the switch's CG batching)
// relies on. With the order reversed, a socket group would span two
// flow-keyed CG groups and shard-split into duplicate vectors.
func (g Granularity) Coarser(other Granularity) bool {
	return g.depth() < other.depth()
}

func (g Granularity) depth() int {
	switch g {
	case GranHost:
		return 0
	case GranChannel:
		return 1
	case GranSocket:
		return 2
	default: // flow: raw-tuple orientation, the true finest level
		return 3
	}
}

// ChainSort orders a set of granularities from coarsest to finest,
// returning the dependency chain used by MGPV. It is a stable
// insertion sort over at most four elements.
func ChainSort(gs []Granularity) []Granularity {
	out := append([]Granularity(nil), gs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].depth() < out[j-1].depth(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Proto is an IP protocol number. Only TCP, UDP and ICMP are
// distinguished by SuperFE policies; everything else is carried
// verbatim.
type Proto uint8

// Well-known protocol numbers.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns a short protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// FiveTuple is the canonical flow key: source/destination IPv4
// addresses, transport ports and protocol. It is comparable and can
// be used as a map key directly.
type FiveTuple struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// String formats the tuple in the usual a.b.c.d:p -> a.b.c.d:p/proto
// notation.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s",
		ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort, t.Proto)
}

// TupleWireBytes is the size of a five-tuple on the wire. Every
// encoding in the tree — the MGPV and FG-update records in gpv, the
// packet and vector records in serve — carries it as the same 13
// big-endian bytes, written and read here.
const TupleWireBytes = 13

// PutTuple writes t's wire form into b[:TupleWireBytes].
func PutTuple(b []byte, t FiveTuple) {
	binary.BigEndian.PutUint32(b[0:4], t.SrcIP)
	binary.BigEndian.PutUint32(b[4:8], t.DstIP)
	binary.BigEndian.PutUint16(b[8:10], t.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], t.DstPort)
	b[12] = byte(t.Proto)
}

// GetTuple reads the tuple PutTuple wrote from b[:TupleWireBytes].
func GetTuple(b []byte) FiveTuple {
	return FiveTuple{
		SrcIP:   binary.BigEndian.Uint32(b[0:4]),
		DstIP:   binary.BigEndian.Uint32(b[4:8]),
		SrcPort: binary.BigEndian.Uint16(b[8:10]),
		DstPort: binary.BigEndian.Uint16(b[10:12]),
		Proto:   Proto(b[12]),
	}
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Reverse returns the tuple with source and destination swapped.
// Useful for matching the two directions of a bidirectional flow.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: t.DstIP, DstIP: t.SrcIP,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Proto: t.Proto,
	}
}

// Canonical returns the direction-normalised form of the tuple — the
// lexicographically smaller of t and t.Reverse() — together with
// whether t itself was already canonical (i.e. the packet travels in
// the canonical direction). Grouping by the canonical form merges
// both directions of a conversation into one group, which is what the
// directional granularities (host/channel/socket) need in order to
// compute features over bidirectional sequences.
func (t FiveTuple) Canonical() (FiveTuple, bool) {
	r := t.Reverse()
	if t.Less(r) || t == r {
		return t, true
	}
	return r, false
}

// Less orders tuples by field: SrcIP, DstIP, SrcPort, DstPort, Proto.
func (t FiveTuple) Less(o FiveTuple) bool {
	if t.SrcIP != o.SrcIP {
		return t.SrcIP < o.SrcIP
	}
	if t.DstIP != o.DstIP {
		return t.DstIP < o.DstIP
	}
	if t.SrcPort != o.SrcPort {
		return t.SrcPort < o.SrcPort
	}
	if t.DstPort != o.DstPort {
		return t.DstPort < o.DstPort
	}
	return t.Proto < o.Proto
}

// Key is a grouping key at some granularity. At most all five tuple
// fields are significant; coarser granularities zero the fields they
// do not use so that Key values remain directly comparable.
type Key struct {
	Gran  Granularity
	Tuple FiveTuple
}

// String renders the key at its granularity.
func (k Key) String() string {
	switch k.Gran {
	case GranHost:
		return fmt.Sprintf("host(%s)", ipString(k.Tuple.SrcIP))
	case GranChannel:
		return fmt.Sprintf("channel(%s->%s)", ipString(k.Tuple.SrcIP), ipString(k.Tuple.DstIP))
	default:
		return fmt.Sprintf("%s(%s)", k.Gran, k.Tuple)
	}
}

// KeyFor projects a packet's 5-tuple onto the requested granularity.
// Directional granularities use the canonical orientation of the
// tuple so that both directions of a conversation share a key; the
// returned forward flag is true when the packet travels in the
// canonical (first-seen, by convention "ingress") direction.
func KeyFor(g Granularity, t FiveTuple) (key Key, forward bool) {
	if g == GranFlow { // GranFlow is 0; naming it below would stop KeyFor inlining
		return Key{Tuple: t}, true
	}
	return directedKey(g, t)
}

// directedKey is KeyFor for every granularity but flow.
func directedKey(g Granularity, t FiveTuple) (Key, bool) {
	switch a, b := t.SrcIP, t.DstIP; g {
	case GranHost, GranChannel:
		// Canonicalise on the IP pair so replies from the peer land in
		// the same group; a host is the pair's lower address alone.
		fwd := a <= b
		if !fwd {
			a, b = b, a
		}
		if g == GranHost {
			b = 0
		}
		return Key{Gran: g, Tuple: FiveTuple{SrcIP: a, DstIP: b}}, fwd
	case GranSocket:
		c, fwd := t.Canonical()
		return Key{Gran: g, Tuple: c}, fwd
	}
	return Key{Gran: g, Tuple: t}, true
}

// Project derives the key at a coarser granularity g from a
// finest-granularity (socket/flow) key. This is the operation the
// SmartNIC performs when it splits a CG group back into intermediate
// granularities using the FG group keys shipped by the switch (§5.1).
func Project(g Granularity, fg FiveTuple) Key {
	k, _ := KeyFor(g, fg)
	return k
}

// tupleBits is how much of a key's second word (Words) the tuple
// takes; the granularity sits above it.
const tupleBits = 40

// Words packs the key into two words: SrcIP and DstIP in a; SrcPort,
// DstPort and Proto in b's low tupleBits, the granularity above them.
// Within one granularity their lexicographic order is the tuple's
// field order. HashKey mixes them; the switch's slots and the NIC's
// records store them as a group's identity.
func (k Key) Words() (a, b uint64) { return TupleWords(k.Gran, &k.Tuple) }

// TupleWords is the Words of Key{g, *t}, read in place: copying a Key
// or tuple just stored field by field reloads it as one wide word, a
// load the store buffer cannot forward.
func TupleWords(g Granularity, t *FiveTuple) (a, b uint64) {
	return uint64(t.SrcIP)<<32 | uint64(t.DstIP),
		uint64(g)<<tupleBits | uint64(t.SrcPort)<<24 | uint64(t.DstPort)<<8 | uint64(t.Proto)
}

// FromWords rebuilds the key Words packed.
func FromWords(a, b uint64) Key {
	return Key{Gran: Granularity(b >> tupleBits), Tuple: FiveTuple{
		SrcIP: uint32(a >> 32), DstIP: uint32(a),
		SrcPort: uint16(b >> 24), DstPort: uint16(b >> 8), Proto: Proto(b)}}
}

// HashKey is the one hash of a grouping key: a multiply-xorshift mix
// of its two Words, granularity included, so coincident tuples at two
// granularities do not collide systematically. The router computes it
// once per packet and every later stage reuses it (§6.2 hash reuse),
// each taking its own bits:
//
//   - shard choice: the high bits, by fastrange;
//   - switch slot and FG index: the low bits, mod the table size,
//     so every shard spreads over all of its slots;
//   - the NIC group table's home slot: the top bits of the hash times
//     a constant, so the high bits a shard's keys share do not crowd
//     its index;
//   - tracer and span sampling: a low-bit mask;
//   - fault scope: a range over the whole value, which under fastrange
//     is a range of whole shards.
func HashKey(k Key) uint32 { return HashWords(TupleWords(k.Gran, &k.Tuple)) }

// HashWords is HashKey of the key whose Words are a and b.
func HashWords(a, b uint64) uint32 {
	h := a*0x9E3779B97F4A7C15 + b*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xFF51AFD7ED558CCD
	return uint32(h >> 32)
}

// IPv4 packs four octets into the uint32 representation used by
// FiveTuple.
func IPv4(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

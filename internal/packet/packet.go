// Package packet defines SuperFE's packet abstraction.
//
// Following §4.1 of the paper, a packet is abstracted as a key-value
// tuple with two kinds of pairs: header fields parsed from the packet
// itself (addresses, ports, protocol, TCP flags) and metadata filled
// in by the programmable switch (size, arrival timestamp, ingress
// port). The Packet struct holds the common fields directly for
// speed; Field() exposes the generic key-value view used by policy
// predicates and mapping functions.
//
//superfe:deterministic
package packet

import (
	"fmt"

	"superfe/internal/flowkey"
)

// TCPFlags is the TCP flag byte; individual bits follow the wire
// encoding.
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "-"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Packet is one packet observation: the parsed header fields plus the
// metadata the switch attaches. Timestamps are nanoseconds since the
// start of the trace. Size is the wire length in bytes.
type Packet struct {
	Tuple     flowkey.FiveTuple
	Timestamp int64 // ns since trace start (switch metadata)
	Size      uint32
	Flags     TCPFlags
	TTL       uint8
	Ingress   uint16 // switch ingress port (metadata)
}

// FieldName enumerates the key side of the packet key-value tuple.
type FieldName uint8

// Packet tuple fields. Header fields come from the packet; metadata
// fields are filled by the switch.
const (
	FieldSrcIP FieldName = iota
	FieldDstIP
	FieldSrcPort
	FieldDstPort
	FieldProto
	FieldFlags
	FieldTTL
	FieldSize      // metadata
	FieldTimestamp // metadata
	FieldIngress   // metadata
	numFields
)

// String returns the policy-language spelling of the field.
func (f FieldName) String() string {
	switch f {
	case FieldSrcIP:
		return "ip.src"
	case FieldDstIP:
		return "ip.dst"
	case FieldSrcPort:
		return "port.src"
	case FieldDstPort:
		return "port.dst"
	case FieldProto:
		return "ip.proto"
	case FieldFlags:
		return "tcp.flags"
	case FieldTTL:
		return "ip.ttl"
	case FieldSize:
		return "size"
	case FieldTimestamp:
		return "tstamp"
	case FieldIngress:
		return "ingress"
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// NumFields is the number of defined packet fields.
const NumFields = int(numFields)

// Field returns the value of the named field as an int64. All packet
// fields are integral, which matches the integer-only data path of
// both the Tofino and the NFP.
func (p *Packet) Field(f FieldName) int64 {
	switch f {
	case FieldSrcIP:
		return int64(p.Tuple.SrcIP)
	case FieldDstIP:
		return int64(p.Tuple.DstIP)
	case FieldSrcPort:
		return int64(p.Tuple.SrcPort)
	case FieldDstPort:
		return int64(p.Tuple.DstPort)
	case FieldProto:
		return int64(p.Tuple.Proto)
	case FieldFlags:
		return int64(p.Flags)
	case FieldTTL:
		return int64(p.TTL)
	case FieldSize:
		return int64(p.Size)
	case FieldTimestamp:
		return p.Timestamp
	case FieldIngress:
		return int64(p.Ingress)
	}
	return 0
}

// String renders a one-line summary for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("%s len=%d t=%dns flags=%s", p.Tuple, p.Size, p.Timestamp, p.Flags)
}

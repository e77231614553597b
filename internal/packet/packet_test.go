package packet

import (
	"testing"
	"testing/quick"

	"superfe/internal/flowkey"
)

func samplePacket() Packet {
	return Packet{
		Tuple: flowkey.FiveTuple{
			SrcIP:   flowkey.IPv4(10, 0, 0, 1),
			DstIP:   flowkey.IPv4(192, 168, 1, 2),
			SrcPort: 4321,
			DstPort: 443,
			Proto:   flowkey.ProtoTCP,
		},
		Timestamp: 123456789,
		Size:      512,
		Flags:     FlagSYN | FlagACK,
		TTL:       64,
		Ingress:   3,
	}
}

func TestFieldAccess(t *testing.T) {
	p := samplePacket()
	cases := []struct {
		f    FieldName
		want int64
	}{
		{FieldSrcIP, int64(p.Tuple.SrcIP)},
		{FieldDstIP, int64(p.Tuple.DstIP)},
		{FieldSrcPort, 4321},
		{FieldDstPort, 443},
		{FieldProto, int64(flowkey.ProtoTCP)},
		{FieldFlags, int64(FlagSYN | FlagACK)},
		{FieldTTL, 64},
		{FieldSize, 512},
		{FieldTimestamp, 123456789},
		{FieldIngress, 3},
	}
	for _, c := range cases {
		if got := p.Field(c.f); got != c.want {
			t.Errorf("Field(%s) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestFieldNames(t *testing.T) {
	// Every defined field has a non-fallback name.
	for f := FieldName(0); int(f) < NumFields; f++ {
		name := f.String()
		if name == "" || name[0] == 'f' && len(name) > 5 && name[:5] == "field" {
			t.Errorf("field %d has fallback name %q", f, name)
		}
	}
}

func TestFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || f.Has(FlagFIN) {
		t.Error("flag membership broken")
	}
	if f.String() != "SYN|ACK" {
		t.Errorf("flag string = %q", f.String())
	}
	if TCPFlags(0).String() != "-" {
		t.Errorf("empty flags = %q", TCPFlags(0).String())
	}
}

func TestProtoPredicates(t *testing.T) {
	p := samplePacket()
	if p.Field(FieldProto) != int64(flowkey.ProtoTCP) {
		t.Error("TCP packet misclassified")
	}
	p.Tuple.Proto = flowkey.ProtoUDP
	if p.Field(FieldProto) != int64(flowkey.ProtoUDP) {
		t.Error("UDP packet misclassified")
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	p := samplePacket()
	frame := Marshal(p)
	got, err := Parse(frame, p.Timestamp)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Tuple != p.Tuple {
		t.Errorf("tuple round-trip: got %v, want %v", got.Tuple, p.Tuple)
	}
	if got.Flags != p.Flags {
		t.Errorf("flags round-trip: got %v, want %v", got.Flags, p.Flags)
	}
	if got.TTL != p.TTL {
		t.Errorf("TTL round-trip: got %d, want %d", got.TTL, p.TTL)
	}
	if got.Size != p.Size {
		t.Errorf("size round-trip: got %d, want %d", got.Size, p.Size)
	}
}

func TestMarshalParseRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sp, dp uint16, udp bool, size uint16, ttl uint8, flags uint8) bool {
		proto := flowkey.ProtoTCP
		if udp {
			proto = flowkey.ProtoUDP
		}
		p := Packet{
			Tuple: flowkey.FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: sp, DstPort: dp, Proto: proto},
			Size:  uint32(size),
			TTL:   ttl,
		}
		if proto == flowkey.ProtoTCP {
			p.Flags = TCPFlags(flags & 0x3f)
		}
		frame := Marshal(p)
		got, err := Parse(frame, 0)
		if err != nil {
			return false
		}
		if got.Tuple != p.Tuple || got.TTL != p.TTL || got.Flags != p.Flags {
			return false
		}
		// Size may have been padded up to the minimum frame length.
		return got.Size >= p.Size || got.Size == uint32(len(frame))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(nil, 0); err != ErrTruncated {
		t.Errorf("nil frame: %v", err)
	}
	if _, err := Parse(make([]byte, 13), 0); err != ErrTruncated {
		t.Errorf("short ethernet: %v", err)
	}
	// Non-IPv4 ethertype.
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x86, 0xdd // IPv6
	if _, err := Parse(frame, 0); err != ErrNotIPv4 {
		t.Errorf("IPv6 frame: %v", err)
	}
	// IPv4 ethertype but bad version nibble.
	frame[12], frame[13] = 0x08, 0x00
	frame[14] = 0x60
	if _, err := Parse(frame, 0); err != ErrNotIPv4 {
		t.Errorf("bad version: %v", err)
	}
	// Bad IHL.
	frame[14] = 0x42 // v4, IHL=2 (8 bytes, below minimum)
	if _, err := Parse(frame, 0); err != ErrBadIHL {
		t.Errorf("bad IHL: %v", err)
	}
	// Truncated TCP header.
	p := samplePacket()
	full := Marshal(p)
	if _, err := Parse(full[:14+20+10], 0); err != ErrBadTransport {
		t.Errorf("truncated TCP: %v", err)
	}
}

func TestParseICMP(t *testing.T) {
	p := samplePacket()
	p.Tuple.Proto = flowkey.ProtoICMP
	p.Tuple.SrcPort, p.Tuple.DstPort = 0, 0
	p.Flags = 0
	frame := Marshal(p)
	got, err := Parse(frame, 0)
	if err != nil {
		t.Fatalf("Parse ICMP: %v", err)
	}
	if got.Tuple.Proto != flowkey.ProtoICMP || got.Tuple.SrcPort != 0 {
		t.Errorf("ICMP parse: %+v", got.Tuple)
	}
}

func TestValidate(t *testing.T) {
	good := samplePacket()
	if err := Validate(good); err != nil {
		t.Errorf("valid packet rejected: %v", err)
	}
	bad := good
	bad.Tuple.SrcIP = 0
	if Validate(bad) == nil {
		t.Error("zero source accepted")
	}
	bad = good
	bad.Size = 0
	if Validate(bad) == nil {
		t.Error("zero size accepted")
	}
	bad = good
	bad.Timestamp = -1
	if Validate(bad) == nil {
		t.Error("negative timestamp accepted")
	}
}

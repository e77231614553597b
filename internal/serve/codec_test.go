package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/trace"
)

func TestPacketRecordRoundTrip(t *testing.T) {
	tr := trace.Generate(trace.EnterpriseConfig, 3)
	var wire []byte
	for i := range tr.Packets {
		wire = AppendPacket(wire, &tr.Packets[i])
	}
	if len(wire) != PacketWireBytes*len(tr.Packets) {
		t.Fatalf("wire length %d, want %d", len(wire), PacketWireBytes*len(tr.Packets))
	}
	got, err := DecodePackets(nil, wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Packets) {
		t.Fatalf("decoded packets differ from originals (%d records)", len(got))
	}
}

func TestDecodePacketsRejectsRaggedPayload(t *testing.T) {
	p := packet.Packet{Tuple: flowkey.FiveTuple{SrcIP: 1, Proto: flowkey.ProtoTCP}, Size: 64}
	wire := AppendPacket(AppendPacket(nil, &p), &p)
	for cut := 0; cut <= len(wire); cut++ {
		got, err := DecodePackets(nil, wire[:cut])
		if cut%PacketWireBytes == 0 {
			if err != nil || len(got) != cut/PacketWireBytes {
				t.Errorf("cut=%d: whole batch rejected: %d pkts, err=%v", cut, len(got), err)
			}
		} else if !errors.Is(err, ErrPacketPayload) || len(got) != 0 {
			t.Errorf("cut=%d: ragged payload accepted: %d pkts, err=%v", cut, len(got), err)
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	vecs := []feature.Vector{
		{Key: flowkey.Key{Gran: flowkey.GranFlow, Tuple: flowkey.FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 443, DstPort: 51234, Proto: flowkey.ProtoTCP}}, Timestamp: 123456789, Values: []float64{1, 2.5, -3, 0}},
		{Key: flowkey.Key{Gran: flowkey.GranHost}, Timestamp: -1, Values: nil},
	}
	for i, want := range vecs {
		wire := AppendVector(nil, &want)
		got, err := DecodeVectorInto(nil, wire)
		if err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		if got.Key != want.Key || got.Timestamp != want.Timestamp {
			t.Errorf("vector %d: header mismatch: %+v vs %+v", i, got, want)
		}
		if len(got.Values) != len(want.Values) {
			t.Fatalf("vector %d: dim %d vs %d", i, len(got.Values), len(want.Values))
		}
		for j := range want.Values {
			if got.Values[j] != want.Values[j] {
				t.Errorf("vector %d value %d: %v vs %v", i, j, got.Values[j], want.Values[j])
			}
		}
	}
}

func TestDecodeVectorRejectsMalformed(t *testing.T) {
	v := feature.Vector{Values: []float64{1, 2}}
	wire := AppendVector(nil, &v)
	// Truncations and a lying dimension must both fail cleanly.
	for cut := 0; cut < len(wire); cut++ {
		if _, err := DecodeVectorInto(nil, wire[:cut]); !errors.Is(err, ErrVectorPayload) {
			t.Fatalf("cut=%d: err=%v, want ErrVectorPayload", cut, err)
		}
	}
	lying := bytes.Clone(wire)
	lying[25] = 99 // declared dim no longer matches payload length
	if _, err := DecodeVectorInto(nil, lying); !errors.Is(err, ErrVectorPayload) {
		t.Errorf("lying dim: err=%v, want ErrVectorPayload", err)
	}
}

// TestVectorFrameAndDecodeInto pins the two halves of the allocation-
// free vector stream: the in-place frame encoder produces exactly the
// bytes of AppendVector wrapped by gpv.AppendFrame, and DecodeVectorInto
// decodes into the caller's buffer when it is large enough and into a
// fresh one when it is not.
func TestVectorFrameAndDecodeInto(t *testing.T) {
	v := feature.Vector{Key: flowkey.Key{Gran: flowkey.GranFlow, Tuple: flowkey.FiveTuple{SrcIP: 7, DstPort: 53, Proto: flowkey.ProtoUDP}}, Timestamp: 42, Values: []float64{1, 2.5, -3}}
	want, err := gpv.AppendFrame([]byte("prefix"), FrameVector, AppendVector(nil, &v))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendVectorFrame([]byte("prefix"), &v); !bytes.Equal(got, want) {
		t.Fatalf("appendVectorFrame = %x, want %x", got, want)
	}

	payload := AppendVector(nil, &v)
	buf := make([]float64, 0, 8)
	got, err := DecodeVectorInto(buf, payload)
	if err != nil || len(got.Values) != 3 || &got.Values[0] != &buf[:1][0] {
		t.Fatalf("DecodeVectorInto with room: %+v, %v (want Values in the caller's buffer)", got, err)
	}
	got, err = DecodeVectorInto(buf[:0:2], payload)
	if err != nil || len(got.Values) != 3 || got.Values[2] != -3 {
		t.Fatalf("DecodeVectorInto without room: %+v, %v", got, err)
	}
}

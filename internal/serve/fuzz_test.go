package serve

import (
	"bytes"
	"errors"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
)

// fuzzSeedStream builds the canonical well-formed ingest stream used
// both as an in-code seed and (pre-generated) in testdata/fuzz: a
// hello, one packet batch, a flush.
func fuzzSeedStream() []byte {
	var stream []byte
	stream, _ = gpv.AppendFrame(stream, FrameHello, []byte("t0"))
	p := packet.Packet{
		Tuple:     flowkey.FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 40000, DstPort: 443, Proto: flowkey.ProtoTCP},
		Timestamp: 1000, Size: 512, Flags: packet.FlagSYN, TTL: 64, Ingress: 3,
	}
	var records []byte
	records = AppendPacket(records, &p)
	p.Timestamp, p.Flags = 2000, packet.FlagACK
	records = AppendPacket(records, &p)
	stream, _ = gpv.AppendFrame(stream, FramePackets, records)
	stream, _ = gpv.AppendFrame(stream, FrameFlush, nil)
	return stream
}

// FuzzIngestFrame drives arbitrary bytes through the ingest decode
// path — the gpv frame layer plus the packet-record codec — the same
// way a connection handler does. The invariants: no panic, no
// allocation bomb from a hostile length prefix (the frame layer
// bounds payloads before allocating), errors are terminal, and any
// batch that decodes re-encodes byte-identically.
func FuzzIngestFrame(f *testing.F) {
	seed := fuzzSeedStream()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])               // truncated mid-frame
	f.Add(seed[:gpv.FrameHeaderBytes-2])    // truncated mid-header
	f.Add([]byte{})                         // empty stream
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n")) // wrong protocol entirely
	oversize := []byte{gpv.FrameMagic, gpv.FrameVersion, FramePackets, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	f.Add(oversize) // length prefix far past the payload bound
	garbage, _ := gpv.AppendFrame(nil, FramePackets, []byte("not a whole record"))
	f.Add(garbage)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream path: exactly what handleConn runs.
		fr := gpv.NewFrameReader(bytes.NewReader(data))
		var pkts []packet.Packet
		frames := 0
		for {
			kind, payload, err := fr.Next()
			if err != nil {
				break
			}
			frames++
			if kind == FramePackets {
				var err error
				pkts, err = DecodePackets(pkts[:0], payload)
				if err != nil {
					if !errors.Is(err, ErrPacketPayload) {
						t.Fatalf("DecodePackets: unexpected error type %v", err)
					}
					continue
				}
				// Round-trip: a batch that decodes must re-encode
				// byte-identically (the record codec is bijective).
				re := make([]byte, 0, len(payload))
				for i := range pkts {
					re = AppendPacket(re, &pkts[i])
				}
				if !bytes.Equal(re, payload) {
					t.Fatalf("packet batch round-trip mismatch: %d records", len(pkts))
				}
			}
		}

		// Buffer path: the same bytes through the incremental decoder
		// must agree with the stream decoder on the frame count.
		rest, bufFrames := data, 0
		for {
			_, _, n, err := gpv.DecodeFrame(rest)
			if err != nil {
				break
			}
			rest = rest[n:]
			bufFrames++
		}
		if bufFrames != frames {
			t.Fatalf("decoder disagreement: stream saw %d frames, buffer saw %d", frames, bufFrames)
		}
	})
}

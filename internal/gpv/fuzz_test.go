package gpv

import (
	"bytes"
	"math/rand"
	"testing"

	"superfe/internal/faults"
	"superfe/internal/flowkey"
)

// FuzzUnmarshalRoundTrip drives the wire codec with arbitrary bytes.
// Any input Unmarshal accepts must satisfy the codec's contract:
// the consumed count is in range, the decoded message re-marshals,
// EncodedSize matches the marshalled length exactly (the §6 byte
// accounting depends on it), and a second decode→encode cycle is
// byte-stable.
func FuzzUnmarshalRoundTrip(f *testing.F) {
	tuple := flowkey.FiveTuple{
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: 443, DstPort: 51234, Proto: flowkey.ProtoTCP,
	}
	fg := Message{FG: &FGUpdate{Index: 7, Key: tuple}}
	seed1, err := fg.Marshal(nil)
	if err != nil {
		f.Fatal(err)
	}
	mgpv := Message{MGPV: &MGPV{
		CG:     flowkey.Key{Gran: flowkey.GranFlow, Tuple: tuple},
		Hash:   0xdeadbeef,
		Reason: EvictFull,
		Cells: []Cell{
			{FGIndex: 3, Forward: true, Values: []uint32{1, 2, 3}},
			{FGIndex: 3, Forward: false, Values: []uint32{4, 5, 6}},
		},
	}}
	seed2, err := mgpv.Marshal(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed1)
	f.Add(seed2)
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Unmarshal(data)
		if err != nil {
			return // malformed input must be rejected, not decoded
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		out, err := m.Marshal(nil)
		if err != nil {
			t.Fatalf("decoded message does not re-marshal: %v", err)
		}
		if got, want := m.EncodedSize(), len(out); got != want {
			t.Fatalf("EncodedSize = %d, marshalled %d bytes", got, want)
		}
		m2, n2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(out) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(out))
		}
		out2, err := m2.Marshal(nil)
		if err != nil {
			t.Fatalf("second re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip is not stable:\n first %x\nsecond %x", out, out2)
		}
	})
}

// FuzzUnmarshalCorrupted is the corruption-mutating variant: instead
// of fully arbitrary bytes, it starts from VALID wire encodings and
// applies the fault injector's mutations on the switch→NIC path —
// single-bit flips, here 1 to 32 of them where the injector applies a
// fixed count, and the injector's own truncation operator. Unmarshal must either reject the
// mutated frame with an error or decode something internally
// consistent; it must never panic, over-consume, or return a frame
// that fails re-marshalling. This is the decode-hardening contract
// the engine's quarantine path relies on.
func FuzzUnmarshalCorrupted(f *testing.F) {
	tuple := flowkey.FiveTuple{
		SrcIP: 0xc0a80101, DstIP: 0x08080808,
		SrcPort: 31337, DstPort: 53, Proto: flowkey.ProtoUDP,
	}
	key := flowkey.Key{Gran: flowkey.GranFlow, Tuple: tuple}
	msgs := []Message{
		{FG: &FGUpdate{Index: 12, Key: tuple}},
		{MGPV: &MGPV{CG: key, Hash: flowkey.HashKey(key), Reason: EvictAging,
			Cells: []Cell{{FGIndex: 1, Forward: true, Values: []uint32{9, 8}}}}},
		{MGPV: &MGPV{CG: key, Hash: flowkey.HashKey(key), Reason: EvictCollision,
			Cells: []Cell{
				{FGIndex: 0, Forward: false, Values: []uint32{1}},
				{FGIndex: 2, Forward: true, Values: []uint32{2}},
				{FGIndex: 4, Forward: true, Values: []uint32{3}},
			}}},
	}
	for _, m := range msgs {
		enc, err := m.Marshal(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, int64(1), uint8(2))
		f.Add(enc, int64(42), uint8(16))
	}

	f.Fuzz(func(t *testing.T, frame []byte, seed int64, flips uint8) {
		// Corrupted variant: seeded single-bit flips.
		buf := append([]byte(nil), frame...)
		if len(buf) > 0 {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < int(flips%32)+1; i++ {
				buf[r.Intn(len(buf))] ^= 1 << r.Intn(8)
			}
		}
		checkHardened(t, buf)
		inj := (&faults.Plan{Seed: seed, Rate: 1, Kinds: faults.WireKinds}).NewInjector(0)

		// Truncated variant (of the corrupted frame — compound faults
		// happen when a frame is hit on consecutive hops).
		checkHardened(t, buf[:inj.TruncateLen(len(buf))])
	})
}

// checkHardened asserts the decode contract on a possibly-mutilated
// frame: error or internally consistent result, never a panic.
func checkHardened(t *testing.T, b []byte) {
	m, n, err := Unmarshal(b)
	if err != nil {
		return
	}
	if n <= 0 || n > len(b) {
		t.Fatalf("consumed %d bytes of %d", n, len(b))
	}
	if m.MGPV != nil {
		if m.MGPV.CG.Gran > flowkey.GranSocket {
			t.Fatalf("decoded out-of-range granularity %d", m.MGPV.CG.Gran)
		}
		if m.MGPV.Reason > EvictFlush {
			t.Fatalf("decoded out-of-range evict reason %d", m.MGPV.Reason)
		}
	}
	if _, err := m.Marshal(nil); err != nil {
		t.Fatalf("accepted frame does not re-marshal: %v", err)
	}
}

package switchsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
)

// TestPropertyCellConservation checks, over random packet sequences
// and random (small) cache geometries, the MGPV invariant: every
// admitted packet's metadata is emitted exactly once, regardless of
// which eviction paths fire.
func TestPropertyCellConservation(t *testing.T) {
	f := func(seed int64, nShortExp, nLongExp uint8, agingOn bool) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			ShortBufCells: 1 + r.Intn(4),
			NumShort:      1 << (1 + nShortExp%5), // 2..32 slots
			LongBufCells:  r.Intn(6),
			NumLong:       int(nLongExp % 4),
			FGTableSize:   8,
			AgingScanNS:   50,
		}
		if cfg.LongBufCells == 0 {
			cfg.NumLong = 0
		}
		if agingOn {
			cfg.AgingT = int64(1000 + r.Intn(100000))
		}
		var cells uint64
		sink := func(m gpv.Message) {
			if m.MGPV != nil {
				cells += uint64(len(m.MGPV.Cells))
			}
		}
		sw, err := New(cfg, flowPlan(nil, flowkey.GranFlow), sink)
		if err != nil {
			return false
		}
		n := 50 + r.Intn(400)
		ts := int64(0)
		for i := 0; i < n; i++ {
			ts += int64(r.Intn(20000))
			p := packet.Packet{
				Tuple: flowkey.FiveTuple{
					SrcIP:   flowkey.IPv4(10, 0, 0, byte(r.Intn(12)+1)),
					DstIP:   flowkey.IPv4(10, 0, 1, byte(r.Intn(6)+1)),
					SrcPort: uint16(1000 + r.Intn(8)),
					DstPort: 80,
					Proto:   flowkey.ProtoTCP,
				},
				Size:      uint32(60 + r.Intn(1400)),
				Timestamp: ts,
			}
			sw.Process(&p)
		}
		sw.Flush()
		st := sw.Stats()
		return cells == uint64(n) && st.CellsOut == uint64(n) && st.PktsIn == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStatsMonotone checks counter sanity over random runs:
// bytes out grows with messages, evictions sum to messages of MGPV
// kind, filtered ≤ in.
func TestPropertyStatsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var mgpvMsgs uint64
		sink := func(m gpv.Message) {
			if m.MGPV != nil {
				mgpvMsgs++
			}
		}
		plan := flowPlan(nil, flowkey.GranSocket)
		sw, err := New(tinyConfig(), plan, sink)
		if err != nil {
			return false
		}
		for i := 0; i < 300; i++ {
			p := pkt(byte(r.Intn(8)+1), byte(r.Intn(4)+1), uint16(1000+r.Intn(4)), uint32(60+r.Intn(1000)), int64(i)*1000)
			sw.Process(&p)
		}
		sw.Flush()
		st := sw.Stats()
		var evictions uint64
		for _, e := range st.Evictions {
			evictions += e
		}
		return evictions == mgpvMsgs &&
			st.PktsFiltered <= st.PktsIn &&
			st.BytesOut > 0 && st.MsgsOut >= mgpvMsgs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

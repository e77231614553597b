package switchsim

import (
	"bytes"
	"math/rand"
	"testing"

	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// filteredMultiGranPlan is multiGranPlan behind a TCP-only filter, so a
// mixed trace exercises the pre-evaluated reject branch too.
func filteredMultiGranPlan(t *testing.T) policy.SwitchPlan {
	t.Helper()
	pol := policy.New("test-multi-tcp").
		Filter(policy.TCPExists()).
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RF(0)).
		Collect().
		GroupBy(flowkey.GranSocket).
		Reduce("size", policy.RF(1)).
		Collect().
		MustBuild()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Switch
}

// mixedTrace is a seeded packet sequence over few enough hosts to
// collide in tinyConfig's 8 slots, with idle gaps long enough to age
// groups out and one UDP packet in five for the filter to drop.
func mixedTrace(seed int64, n int) []packet.Packet {
	r := rand.New(rand.NewSource(seed))
	pkts := make([]packet.Packet, n)
	ts := int64(0)
	for i := range pkts {
		ts += int64(r.Intn(4000))
		if r.Intn(50) == 0 {
			ts += 200_000
		}
		proto := flowkey.ProtoTCP
		if r.Intn(5) == 0 {
			proto = flowkey.ProtoUDP
		}
		pkts[i] = packet.Packet{
			Tuple: flowkey.FiveTuple{
				SrcIP:   flowkey.IPv4(10, 0, 0, byte(r.Intn(20)+1)),
				DstIP:   flowkey.IPv4(10, 0, 1, byte(r.Intn(6)+1)),
				SrcPort: uint16(1000 + r.Intn(8)),
				DstPort: 80,
				Proto:   proto,
			},
			Size:      uint32(60 + r.Intn(1400)),
			Timestamp: ts,
			TTL:       64,
		}
	}
	return pkts
}

// replay runs pkts through a fresh switch and returns the wire
// encoding of every message it emitted, in order, plus its counters.
// batch 0 drives the per-packet Process adapter; batch > 0 plays the
// engine's router, filling batch-row Columns and calling
// ProcessColumns on each full one and on the final partial one.
// ZeroCopy messages die with the sink call, so they are marshalled
// inside it; copy-mode messages are kept and marshalled only after
// Flush, so every later eviction has had its chance to clobber them.
func replay(t *testing.T, cfg Config, plan policy.SwitchPlan, pkts []packet.Packet, batch int) ([]byte, Stats) {
	t.Helper()
	var stream []byte
	var kept []gpv.Message
	marshal := func(m gpv.Message) {
		var err error
		if stream, err = m.Marshal(stream); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := New(cfg, plan, func(m gpv.Message) {
		if cfg.ZeroCopy {
			marshal(m)
		} else {
			kept = append(kept, m)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch == 0 {
		for i := range pkts {
			sw.Process(&pkts[i])
		}
	} else {
		cols := NewColumns(batch, len(plan.MetadataFields))
		for i := range pkts {
			p := &pkts[i]
			key, _ := flowkey.KeyFor(plan.CG, p.Tuple)
			cols.Append(p, key, flowkey.HashKey(key), plan.Pred.Eval(p), plan.MetadataFields)
			if cols.N == batch {
				sw.ProcessColumns(cols)
				cols.Reset()
			}
		}
		sw.ProcessColumns(cols)
	}
	sw.Flush()
	for _, m := range kept {
		marshal(m)
	}
	return stream, sw.Stats()
}

// TestBatchBoundaryInvariance is the columns-vs-adapter differential:
// ProcessColumns is the switch's only row loop, so where the batch
// boundaries fall — every packet (the Process adapter), every 7 or
// every 256 — must not change a byte of the gpv message stream nor a
// single counter, across every eviction cause, the FG table and both
// buffer-ownership modes. The ZeroCopy case also has a copy-mode twin
// (same geometry) whose messages are all kept until after Flush: a
// ZeroCopy message aliases the register arrays, and a copy-mode one
// that still shared a word with them — or with a later message — would
// make the two modes' streams differ.
func TestBatchBoundaryInvariance(t *testing.T) {
	pkts := mixedTrace(17, 3000)
	aging := tinyConfig()
	aging.AgingT = 50_000
	zero := aging
	zero.ZeroCopy = true
	for _, tc := range []struct {
		name     string
		cfg      Config
		plan     policy.SwitchPlan
		copyTwin bool
	}{
		{"single-gran", tinyConfig(), flowPlan(t, flowkey.GranFlow), false},
		{"multi-gran/aging", aging, filteredMultiGranPlan(t), false},
		{"multi-gran/aging/zerocopy", zero, filteredMultiGranPlan(t), true},
		{"multi-gran/default-geometry", DefaultConfig(), filteredMultiGranPlan(t), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantStats := replay(t, tc.cfg, tc.plan, pkts, 0)
			if wantStats.CellsOut == 0 || wantStats.MsgsOut == 0 {
				t.Fatalf("adapter run emitted nothing: %v", wantStats)
			}
			if tc.copyTwin {
				twin := tc.cfg
				twin.ZeroCopy = false
				got, gotStats := replay(t, twin, tc.plan, pkts, 0)
				if !bytes.Equal(got, want) {
					t.Errorf("copy mode's gpv stream differs from ZeroCopy's (%d vs %d bytes)", len(got), len(want))
				}
				if gotStats != wantStats {
					t.Errorf("copy mode's stats differ:\n  copy     %s\n  zerocopy %s", gotStats, wantStats)
				}
			}
			for _, batch := range []int{7, 256} {
				got, gotStats := replay(t, tc.cfg, tc.plan, pkts, batch)
				if !bytes.Equal(got, want) {
					t.Errorf("batch=%d: gpv stream differs from the one-row adapter's (%d vs %d bytes)", batch, len(got), len(want))
				}
				if gotStats != wantStats {
					t.Errorf("batch=%d: stats differ:\n  batched %s\n  adapter %s", batch, gotStats, wantStats)
				}
			}
			if tc.cfg.AgingT > 0 {
				for _, r := range []gpv.EvictReason{gpv.EvictCollision, gpv.EvictFull, gpv.EvictAging, gpv.EvictFlush} {
					if wantStats.Evictions[r] == 0 {
						t.Errorf("fixture never evicted for %s — widen the trace", r)
					}
				}
				if wantStats.PktsFiltered == 0 || wantStats.FGUpdates == 0 {
					t.Errorf("fixture missed the filter or the FG table: %v", wantStats)
				}
			}
		})
	}
}

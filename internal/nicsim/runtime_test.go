package nicsim

import (
	"math"
	"sort"
	"testing"

	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
)

// compile builds and compiles a policy, failing the test on error.
func compile(t *testing.T, b *policy.Builder) *policy.Plan {
	t.Helper()
	pol, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// statsPolicy: per-flow count, size mean/max, ipt mean.
func statsPolicy() *policy.Builder {
	return policy.New("stats").
		GroupBy(flowkey.GranFlow).
		Map("one", policy.SrcNone, policy.MapOne).
		Reduce("one", policy.RF(streaming.FSum)).
		Collect().
		Reduce("size", policy.RF(streaming.FMean), policy.RF(streaming.FMax)).
		Collect().
		Map("ipt", policy.SrcField(packet.FieldTimestamp), policy.MapIPT).
		Reduce("ipt", policy.RF(streaming.FMean)).
		Collect()
}

// mgpvFor packs packets of one flow-granularity group into a single
// MGPV message using the plan's metadata layout.
func mgpvFor(plan *policy.Plan, pkts []packet.Packet) gpv.Message {
	key, _ := flowkey.KeyFor(plan.Switch.CG, pkts[0].Tuple)
	v := &gpv.MGPV{CG: key, Hash: flowkey.HashKey(key)}
	for i := range pkts {
		c := gpv.Cell{Values: make([]uint32, len(plan.Switch.MetadataFields))}
		for j, f := range plan.Switch.MetadataFields {
			c.Values[j] = uint32(pkts[i].Field(f))
		}
		c.Forward = true
		v.Cells = append(v.Cells, c)
	}
	return gpv.Message{MGPV: v}
}

func flowPkts(n int, size uint32, iptNS int64) []packet.Packet {
	tup := flowkey.FiveTuple{
		SrcIP: flowkey.IPv4(10, 0, 0, 1), DstIP: flowkey.IPv4(10, 0, 0, 2),
		SrcPort: 1000, DstPort: 80, Proto: flowkey.ProtoTCP,
	}
	var out []packet.Packet
	ts := int64(0)
	for i := 0; i < n; i++ {
		out = append(out, packet.Packet{Tuple: tup, Size: size, Timestamp: ts})
		ts += iptNS
	}
	return out
}

func TestRuntimeComputesKnownStats(t *testing.T) {
	plan := compile(t, statsPolicy())
	var vecs []feature.Vector
	rt, err := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	pkts := flowPkts(10, 500, 1_000_000)
	rt.Process(mgpvFor(plan, pkts))
	rt.Flush()
	if len(vecs) != 1 {
		t.Fatalf("vectors = %d", len(vecs))
	}
	v := vecs[0].Values
	if len(v) != 4 {
		t.Fatalf("dim = %d, want 4", len(v))
	}
	if v[0] != 10 { // count
		t.Errorf("count = %g", v[0])
	}
	if v[1] != 500 { // mean size
		t.Errorf("mean size = %g", v[1])
	}
	if v[2] != 500 { // max size
		t.Errorf("max size = %g", v[2])
	}
	// Mean ipt: first packet contributes 0 (no previous), then 9 × 1ms.
	wantIPT := 9.0 * 1e6 / 10.0
	if math.Abs(v[3]-wantIPT) > 1 {
		t.Errorf("mean ipt = %g, want %g", v[3], wantIPT)
	}
}

func TestRuntimeDirectionMapping(t *testing.T) {
	plan := compile(t, policy.New("dir").
		GroupBy(flowkey.GranSocket).
		Map("one", policy.SrcNone, policy.MapOne).
		Map("direction", policy.SrcKey("one"), policy.MapDirection).
		Reduce("direction", policy.RFArray(8)).
		Collect())
	var vecs []feature.Vector
	rt, _ := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	// Alternate directions within one socket group.
	tup := flowkey.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: flowkey.ProtoTCP}
	canon, _ := tup.Canonical()
	key, _ := flowkey.KeyFor(flowkey.GranSocket, tup)
	v := &gpv.MGPV{CG: key, Hash: flowkey.HashKey(key)}
	for i := 0; i < 4; i++ {
		v.Cells = append(v.Cells, gpv.Cell{Forward: i%2 == 0})
	}
	_ = canon
	rt.Process(gpv.Message{MGPV: v})
	rt.Flush()
	if len(vecs) != 1 {
		t.Fatalf("vectors = %d", len(vecs))
	}
	got := vecs[0].Values[:4]
	want := []float64{1, -1, 1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("direction sequence = %v, want %v", got, want)
		}
	}
}

func TestRuntimeMultiGranularitySplit(t *testing.T) {
	// Host CG batching with socket FG keys: the runtime must split
	// one host group back into per-socket groups.
	plan := compile(t, policy.New("multi").
		GroupBy(flowkey.GranHost).
		Map("one", policy.SrcNone, policy.MapOne).
		Reduce("one", policy.RF(streaming.FSum)).
		Collect().
		GroupBy(flowkey.GranSocket).
		Map("sone", policy.SrcNone, policy.MapOne).
		Reduce("sone", policy.RF(streaming.FSum)).
		Collect())
	var vecs []feature.Vector
	rt, _ := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))

	// Two sockets of the same host: 3 and 2 packets.
	tupA := flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 0, 0, 1), DstIP: flowkey.IPv4(10, 0, 0, 9), SrcPort: 1000, DstPort: 80, Proto: flowkey.ProtoTCP}
	tupB := tupA
	tupB.SrcPort = 2000
	canonA, _ := tupA.Canonical()
	canonB, _ := tupB.Canonical()
	rt.Process(gpv.Message{FG: &gpv.FGUpdate{Index: 1, Key: canonA}})
	rt.Process(gpv.Message{FG: &gpv.FGUpdate{Index: 2, Key: canonB}})
	hostKey, _ := flowkey.KeyFor(flowkey.GranHost, tupA)
	v := &gpv.MGPV{CG: hostKey, Hash: flowkey.HashKey(hostKey)}
	for i := 0; i < 3; i++ {
		v.Cells = append(v.Cells, gpv.Cell{FGIndex: 1, Forward: true})
	}
	for i := 0; i < 2; i++ {
		v.Cells = append(v.Cells, gpv.Cell{FGIndex: 2, Forward: true})
	}
	rt.Process(gpv.Message{MGPV: v})
	rt.Flush()

	// Per-group vectors at the FG (socket) granularity: two vectors,
	// each [host count, socket count].
	if len(vecs) != 2 {
		t.Fatalf("vectors = %d, want 2", len(vecs))
	}
	sort.Slice(vecs, func(i, j int) bool { return vecs[i].Values[1] > vecs[j].Values[1] })
	if vecs[0].Values[0] != 5 || vecs[0].Values[1] != 3 {
		t.Errorf("socket A vector = %v, want [5 3]", vecs[0].Values)
	}
	if vecs[1].Values[0] != 5 || vecs[1].Values[1] != 2 {
		t.Errorf("socket B vector = %v, want [5 2]", vecs[1].Values)
	}
}

// TestRuntimeUnknownFGDropped: a cell of an FG index never synced —
// before the first sync, inside the table or past its end — is counted
// and dropped, not a panic. The NIC's FG table grows by doubling to
// cover the highest index synced, so the switch's default 16 384
// entries take 16 384 slots.
func TestRuntimeUnknownFGDropped(t *testing.T) {
	plan := compile(t, policy.New("multi").
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RF(streaming.FSum)).
		Collect().
		GroupBy(flowkey.GranSocket).
		Reduce("size", policy.RF(streaming.FMean)).
		Collect())
	rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	tup := flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 0, 0, 1), DstIP: flowkey.IPv4(10, 0, 0, 2), SrcPort: 1000, DstPort: 80, Proto: flowkey.ProtoTCP}
	hostKey, _ := flowkey.KeyFor(flowkey.GranHost, tup)
	cell := func(i uint16) {
		v := &gpv.MGPV{CG: hostKey, Hash: flowkey.HashKey(hostKey), Cells: []gpv.Cell{
			{FGIndex: i, Forward: true, Values: []uint32{100}}}}
		rt.Process(gpv.Message{MGPV: v})
	}
	sync := func(i uint16) { rt.Process(gpv.Message{FG: &gpv.FGUpdate{Index: i, Key: tup}}) }
	cell(77)
	sync(3)
	if len(rt.fgTable) != fgTableMinSlots {
		t.Fatalf("index 3 synced: %d slots, want %d", len(rt.fgTable), fgTableMinSlots)
	}
	cell(4)
	cell(fgTableMinSlots)
	cell(0x7fff)
	if got := rt.Stats().UnknownFG; got != 4 {
		t.Errorf("%d unknown FG cells, want 4", got)
	}
	cell(3)
	sync(16383)
	if len(rt.fgTable) != 16384 || len(rt.fgRefs) != 2*16384*len(rt.programs) {
		t.Errorf("index 16383 synced: %d slots and %d refs, want 16384 and %d", len(rt.fgTable), len(rt.fgRefs), 2*16384*len(rt.programs))
	}
	cell(16383)
	cell(3)
	if st := rt.Stats(); st.UnknownFG != 4 || st.Cells != 7 || st.GroupsLive != 2 {
		t.Errorf("cells %d, unknown FG %d, groups %d; want 7, 4 and 2", st.Cells, st.UnknownFG, st.GroupsLive)
	}
}

func TestRuntimePerPacketEmission(t *testing.T) {
	plan := compile(t, policy.New("pp").
		GroupBy(flowkey.GranFlow).
		Map("one", policy.SrcNone, policy.MapOne).
		Reduce("one", policy.RF(streaming.FSum)).
		CollectPerPacket())
	var vecs []feature.Vector
	rt, _ := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	pkts := flowPkts(5, 100, 1000)
	rt.Process(mgpvFor(plan, pkts))
	if len(vecs) != 5 {
		t.Fatalf("per-packet vectors = %d, want 5", len(vecs))
	}
	// Running count: 1, 2, 3, 4, 5.
	for i, v := range vecs {
		if v.Values[0] != float64(i+1) {
			t.Errorf("vector %d = %v", i, v.Values)
		}
	}
	rt.Flush() // per-packet policies must not double-emit on flush
	if len(vecs) != 5 {
		t.Error("flush emitted extra vectors for a per-packet policy")
	}
}

func TestRuntimeSynthesizeSample(t *testing.T) {
	plan := compile(t, policy.New("cumul-like").
		GroupBy(flowkey.GranFlow).
		Reduce("size", policy.RFArray(16)).
		SynthesizeSample(4).
		Collect())
	var vecs []feature.Vector
	rt, _ := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	pkts := flowPkts(8, 100, 1000)
	for i := range pkts {
		pkts[i].Size = uint32(100 * (i + 1))
	}
	rt.Process(mgpvFor(plan, pkts))
	rt.Flush()
	if len(vecs) != 1 || len(vecs[0].Values) != 4 {
		t.Fatalf("vectors = %v", vecs)
	}
	v := vecs[0].Values
	// Samples of 100..800 padded to 16 then resampled to 4: the
	// first point is 100, the last is 0 (zero padding tail).
	if v[0] != 100 {
		t.Errorf("first sample = %g", v[0])
	}
}

func TestRuntimeBurstMapping(t *testing.T) {
	plan := compile(t, policy.New("burst").
		GroupBy(flowkey.GranFlow).
		MapBurst("burst", policy.SrcField(packet.FieldTimestamp), 1_000_000).
		Reduce("burst", policy.RF(streaming.FMax)).
		Collect())
	var vecs []feature.Vector
	rt, _ := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	// Three bursts separated by >1ms gaps.
	var pkts []packet.Packet
	ts := int64(0)
	for b := 0; b < 3; b++ {
		for i := 0; i < 4; i++ {
			pkts = append(pkts, flowPkts(1, 100, 0)[0])
			pkts[len(pkts)-1].Timestamp = ts
			ts += 100_000 // intra-burst 0.1ms
		}
		ts += 5_000_000 // inter-burst 5ms
	}
	rt.Process(mgpvFor(plan, pkts))
	rt.Flush()
	if len(vecs) != 1 {
		t.Fatalf("vectors = %d", len(vecs))
	}
	if got := vecs[0].Values[0]; got != 3 {
		t.Errorf("burst count = %g, want 3", got)
	}
}

func TestRuntimeNaiveMatchesStreamingPerGroup(t *testing.T) {
	// The Figure 15 ablation must be apples-to-apples: for exact
	// reducers (sum/max) naive and streaming agree bit-for-bit.
	build := func(naive bool) []feature.Vector {
		plan := compile(t, policy.New("x").
			GroupBy(flowkey.GranFlow).
			Reduce("size", policy.RF(streaming.FSum), policy.RF(streaming.FMax), policy.RF(streaming.FMean)).
			Collect())
		cfg := DefaultConfig()
		cfg.Naive = naive
		var vecs []feature.Vector
		rt, _ := NewRuntime(cfg, plan, feature.Collect(&vecs))
		rt.Process(mgpvFor(plan, flowPkts(20, 321, 500)))
		rt.Flush()
		return vecs
	}
	s := build(false)
	n := build(true)
	if len(s) != 1 || len(n) != 1 {
		t.Fatal("vector counts differ")
	}
	for i := range s[0].Values {
		if math.Abs(s[0].Values[i]-n[0].Values[i]) > 1e-9 {
			t.Errorf("feature %d: streaming %g vs naive %g", i, s[0].Values[i], n[0].Values[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := good
	bad.Islands = 0
	if bad.Validate() == nil {
		t.Error("zero islands accepted")
	}
	bad = good
	bad.FreqHz = 0
	if bad.Validate() == nil {
		t.Error("zero frequency accepted")
	}
	bad = good
	bad.Memories[MemCLS].Bytes = 0
	if bad.Validate() == nil {
		t.Error("zero memory accepted")
	}
}

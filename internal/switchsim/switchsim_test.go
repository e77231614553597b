package switchsim

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
)

// tinyConfig is a cache small enough to force every eviction path.
func tinyConfig() Config {
	return Config{
		ShortBufCells: 2,
		NumShort:      8,
		LongBufCells:  4,
		NumLong:       2,
		FGTableSize:   16,
		AgingScanNS:   100,
	}
}

// flowPlan compiles a minimal single-granularity plan. t may be nil
// (property-test closures); compile errors then panic, which is fine
// for a statically valid test policy.
func flowPlan(t *testing.T, g flowkey.Granularity) policy.SwitchPlan {
	if t != nil {
		t.Helper()
	}
	pol := policy.New("test").
		GroupBy(g).
		Reduce("size", policy.RF(0)). // f_sum
		Collect().
		MustBuild()
	plan, err := policy.Compile(pol)
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	return plan.Switch
}

// multiGranPlan compiles a host+socket plan (MGPV with FG table).
func multiGranPlan(t *testing.T) policy.SwitchPlan {
	t.Helper()
	pol := policy.New("test-multi").
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RF(0)).
		Collect().
		GroupBy(flowkey.GranSocket).
		Reduce("size", policy.RF(1)). // f_mean
		Collect().
		MustBuild()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Switch
}

func pkt(src, dst byte, sport uint16, size uint32, ts int64) packet.Packet {
	return packet.Packet{
		Tuple: flowkey.FiveTuple{
			SrcIP: flowkey.IPv4(10, 0, 0, src), DstIP: flowkey.IPv4(10, 0, 1, dst),
			SrcPort: sport, DstPort: 80, Proto: flowkey.ProtoTCP,
		},
		Size: size, Timestamp: ts, TTL: 64,
	}
}

func collectSink() (*[]gpv.Message, func(gpv.Message)) {
	var msgs []gpv.Message
	return &msgs, func(m gpv.Message) { msgs = append(msgs, m) }
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := good
	bad.ShortBufCells = 0
	if bad.Validate() == nil {
		t.Error("zero short buffers accepted")
	}
	bad = good
	bad.FGTableSize = 0
	if bad.Validate() == nil {
		t.Error("zero FG table accepted")
	}
	bad = good
	bad.AgingT = 100
	bad.AgingScanNS = 0
	if bad.Validate() == nil {
		t.Error("aging without scan interval accepted")
	}
	if _, err := New(good, policy.SwitchPlan{Pred: policy.TruePred{}, Chain: []flowkey.Granularity{flowkey.GranFlow}}, nil); err == nil {
		t.Error("nil sink accepted")
	}
	// The slot's fill and long-buffer index are register-width fields:
	// their largest geometry is accepted, one past it is not.
	edge := good
	edge.ShortBufCells, edge.NumLong = maxShortBufCells, maxLongBufs
	if err := edge.Validate(); err != nil {
		t.Errorf("%d-cell short buffers and %d long buffers rejected: %v", edge.ShortBufCells, edge.NumLong, err)
	}
	bad = edge
	bad.ShortBufCells++
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "8-bit fill register") {
		t.Errorf("%d-cell short buffers: %v, want the fill register's bound", bad.ShortBufCells, err)
	}
	bad = edge
	bad.NumLong++
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "16-bit long-buffer index") {
		t.Errorf("%d long buffers: %v, want the long-buffer index's bound", bad.NumLong, err)
	}
}

// TestSlotLayout: a slot is 32 bytes, so two share a cache line and none
// straddles two, and only a multi-granularity plan, the one that
// indexes FG keys, gets an FG table.
func TestSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 32 {
		t.Errorf("a slot is %d bytes, want 32", n)
	}
	_, sink := collectSink()
	for _, c := range []struct {
		name  string
		plan  policy.SwitchPlan
		table bool
	}{
		{"flow", flowPlan(t, flowkey.GranFlow), false},
		{"socket", flowPlan(t, flowkey.GranSocket), false},
		{"host+socket", multiGranPlan(t), true},
	} {
		sw, err := New(DefaultConfig(), c.plan, sink)
		if err != nil {
			t.Fatal(err)
		}
		if got := sw.fgTable != nil; got != c.table || c.table && len(sw.fgTable) != DefaultConfig().FGTableSize {
			t.Errorf("%s plan: FG table of %d entries, want one: %v", c.name, len(sw.fgTable), c.table)
		}
	}
}

func TestCellConservation(t *testing.T) {
	// Every admitted packet's cell must eventually be emitted exactly
	// once (across evictions and the final flush).
	msgs, sink := collectSink()
	sw, err := New(tinyConfig(), flowPlan(t, flowkey.GranFlow), sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		p := pkt(byte(i%16), byte(i%5), uint16(1000+i%7), 100, int64(i)*1000)
		sw.Process(&p)
	}
	sw.Flush()
	var cells int
	for _, m := range *msgs {
		if m.MGPV != nil {
			cells += len(m.MGPV.Cells)
		}
	}
	if cells != n {
		t.Errorf("cells out = %d, want %d (conservation violated)", cells, n)
	}
	st := sw.Stats()
	if st.CellsOut != n || st.PktsIn != n {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

func TestFilterDropsPackets(t *testing.T) {
	plan := flowPlan(t, flowkey.GranFlow)
	plan.Pred = policy.TCPExists()
	msgs, sink := collectSink()
	sw, _ := New(tinyConfig(), plan, sink)
	tcp := pkt(1, 1, 1000, 100, 0)
	udp := tcp
	udp.Tuple.Proto = flowkey.ProtoUDP
	if !sw.Process(&tcp) {
		t.Error("TCP packet filtered out")
	}
	if sw.Process(&udp) {
		t.Error("UDP packet passed TCP filter")
	}
	sw.Flush()
	var cells int
	for _, m := range *msgs {
		if m.MGPV != nil {
			cells += len(m.MGPV.Cells)
		}
	}
	if cells != 1 {
		t.Errorf("cells = %d, want 1", cells)
	}
	if sw.Stats().PktsFiltered != 1 {
		t.Errorf("filtered = %d", sw.Stats().PktsFiltered)
	}
}

func TestShortBufferFullPromotesToLong(t *testing.T) {
	msgs, sink := collectSink()
	cfg := tinyConfig()
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	// One flow sending 2 (short) + 3 (long, fills at 4th long cell)...
	// Send exactly short+long cells: 2+4 = 6 packets → one EvictFull
	// carrying all 6 cells.
	for i := 0; i < 6; i++ {
		p := pkt(1, 1, 1000, 100, int64(i)*1000)
		sw.Process(&p)
	}
	if len(*msgs) != 1 {
		t.Fatalf("messages = %d, want 1 full eviction", len(*msgs))
	}
	v := (*msgs)[0].MGPV
	if v == nil || v.Reason != gpv.EvictFull {
		t.Fatalf("unexpected message: %+v", (*msgs)[0])
	}
	if len(v.Cells) != 6 {
		t.Errorf("cells = %d, want 6 (short 2 + long 4)", len(v.Cells))
	}
	if sw.Stats().LongBufGrants != 1 {
		t.Errorf("long grants = %d", sw.Stats().LongBufGrants)
	}
}

func TestShortOnlyEvictionWhenStackEmpty(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumLong = 0
	cfg.LongBufCells = 0
	msgs, sink := collectSink()
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	for i := 0; i < 5; i++ {
		p := pkt(1, 1, 1000, 100, int64(i))
		sw.Process(&p)
	}
	sw.Flush()
	// 2-cell short buffer with no long buffers: evict at packets 3
	// and 5, flush carries the remainder.
	var evictFull, cells int
	for _, m := range *msgs {
		if m.MGPV != nil {
			cells += len(m.MGPV.Cells)
			if m.MGPV.Reason == gpv.EvictFull {
				evictFull++
			}
		}
	}
	if cells != 5 {
		t.Errorf("cells = %d", cells)
	}
	if evictFull < 2 {
		t.Errorf("full evictions = %d, want ≥2", evictFull)
	}
}

func TestCollisionEviction(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumShort = 1 // everything collides
	msgs, sink := collectSink()
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	a := pkt(1, 1, 1000, 100, 0)
	b := pkt(2, 2, 2000, 100, 1000)
	sw.Process(&a)
	sw.Process(&b) // evicts a's group
	if len(*msgs) != 1 {
		t.Fatalf("messages = %d", len(*msgs))
	}
	v := (*msgs)[0].MGPV
	if v.Reason != gpv.EvictCollision {
		t.Errorf("reason = %v", v.Reason)
	}
	aKey, _ := flowkey.KeyFor(flowkey.GranFlow, a.Tuple)
	if v.CG != aKey {
		t.Errorf("evicted group = %v, want %v", v.CG, aKey)
	}
	if sw.Stats().Evictions[gpv.EvictCollision] != 1 {
		t.Error("collision counter wrong")
	}
}

// longGranted counts the occupied CG slots that hold a long buffer.
func longGranted(s *Switch) int {
	n := 0
	for i := range s.slots {
		if s.slots[i].occupied && s.slots[i].longIdx >= 0 {
			n++
		}
	}
	return n
}

func TestCollisionReleasesLongBuffer(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumShort = 1
	cfg.NumLong = 1
	_, sink := collectSink()
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	// Flow A fills its short buffer and takes the only long buffer.
	for i := 0; i < 3; i++ {
		p := pkt(1, 1, 1000, 100, int64(i))
		sw.Process(&p)
	}
	if granted := longGranted(sw); granted != 1 {
		t.Fatal("long buffer not granted")
	}
	// Flow B collides: A evicted, long buffer back on the stack.
	p := pkt(2, 2, 2000, 100, 5000)
	sw.Process(&p)
	// B fills short and must be able to take the long buffer again.
	for i := 0; i < 2; i++ {
		q := pkt(2, 2, 2000, 100, int64(6000+i))
		sw.Process(&q)
	}
	if granted := longGranted(sw); granted != 1 {
		t.Error("long buffer was not recycled after collision eviction")
	}
}

func TestAgingEvictsIdleGroups(t *testing.T) {
	cfg := tinyConfig()
	cfg.AgingT = 10_000 // 10µs
	cfg.AgingScanNS = 100
	msgs, sink := collectSink()
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	p := pkt(1, 1, 1000, 100, 0)
	sw.Process(&p)
	// A packet from another flow far in the future drives the clock;
	// the aging scan must evict the idle first group.
	q := pkt(2, 2, 2000, 100, 1_000_000)
	sw.Process(&q)
	foundAging := false
	for _, m := range *msgs {
		if m.MGPV != nil && m.MGPV.Reason == gpv.EvictAging {
			foundAging = true
		}
	}
	if !foundAging {
		t.Error("idle group not evicted by aging")
	}
	if sw.Stats().AgingChecks == 0 {
		t.Error("no aging checks recorded")
	}
}

func TestAgingDisabled(t *testing.T) {
	cfg := tinyConfig()
	cfg.AgingT = 0
	msgs, sink := collectSink()
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	p := pkt(1, 1, 1000, 100, 0)
	sw.Process(&p)
	q := pkt(2, 2, 2000, 100, 1_000_000_000)
	sw.Process(&q)
	for _, m := range *msgs {
		if m.MGPV != nil && m.MGPV.Reason == gpv.EvictAging {
			t.Fatal("aging fired while disabled")
		}
	}
}

func TestFGTableSyncAndIndices(t *testing.T) {
	msgs, sink := collectSink()
	sw, _ := New(tinyConfig(), multiGranPlan(t), sink)
	a := pkt(1, 1, 1000, 100, 0)
	b := pkt(1, 1, 2000, 100, 1000) // same host, different socket
	sw.Process(&a)
	sw.Process(&a) // same FG key: no second update
	sw.Process(&b)
	sw.Flush()
	var updates []gpv.FGUpdate
	var cells []gpv.Cell
	for _, m := range *msgs {
		if m.FG != nil {
			updates = append(updates, *m.FG)
		}
		if m.MGPV != nil {
			cells = append(cells, m.MGPV.Cells...)
		}
	}
	if len(updates) != 2 {
		t.Fatalf("FG updates = %d, want 2", len(updates))
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Cells must reference synced indices whose keys recover the
	// original tuples.
	idx := map[uint16]flowkey.FiveTuple{}
	for _, u := range updates {
		idx[u.Index] = u.Key
	}
	for i, c := range cells {
		key, ok := idx[c.FGIndex]
		if !ok {
			t.Fatalf("cell %d references unsynced FG index %d", i, c.FGIndex)
		}
		tuple := key
		if !c.Forward {
			tuple = tuple.Reverse()
		}
		if tuple != a.Tuple && tuple != b.Tuple {
			t.Errorf("cell %d recovers tuple %v", i, tuple)
		}
	}
}

func TestMultiGranStoresOneCopyPerPacket(t *testing.T) {
	// The defining MGPV property (§5.1): metadata stored once per
	// packet regardless of granularity count.
	msgs, sink := collectSink()
	sw, _ := New(tinyConfig(), multiGranPlan(t), sink)
	const n = 100
	for i := 0; i < n; i++ {
		p := pkt(byte(i%3), 1, uint16(1000+i%11), 100, int64(i)*1000)
		sw.Process(&p)
	}
	sw.Flush()
	var cells int
	for _, m := range *msgs {
		if m.MGPV != nil {
			cells += len(m.MGPV.Cells)
		}
	}
	if cells != n {
		t.Errorf("cells = %d, want %d (one per packet)", cells, n)
	}
}

func TestDirectionBitAtSocketGranularity(t *testing.T) {
	msgs, sink := collectSink()
	sw, _ := New(tinyConfig(), flowPlan(t, flowkey.GranSocket), sink)
	fwd := pkt(1, 1, 1000, 100, 0)
	rev := packet.Packet{Tuple: fwd.Tuple.Reverse(), Size: 100, Timestamp: 1000}
	sw.Process(&fwd)
	sw.Process(&rev)
	sw.Flush()
	var cells []gpv.Cell
	for _, m := range *msgs {
		if m.MGPV != nil {
			cells = append(cells, m.MGPV.Cells...)
		}
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d (both directions must share a socket group)", len(cells))
	}
	if cells[0].Forward == cells[1].Forward {
		t.Error("direction bit identical for opposite directions")
	}
}

func TestFlushIdempotent(t *testing.T) {
	msgs, sink := collectSink()
	sw, _ := New(tinyConfig(), flowPlan(t, flowkey.GranFlow), sink)
	p := pkt(1, 1, 1000, 100, 0)
	sw.Process(&p)
	sw.Flush()
	before := len(*msgs)
	sw.Flush()
	if len(*msgs) != before {
		t.Error("second flush emitted messages")
	}
}

func TestAggregationRatioBelowOne(t *testing.T) {
	// With realistic packet sizes the MGPV stream must be far smaller
	// than the raw traffic (Figure 12's premise).
	_, sink := collectSink()
	sw, _ := New(DefaultConfig(), flowPlan(t, flowkey.GranFlow), sink)
	for i := 0; i < 10000; i++ {
		p := pkt(byte(i%50), byte(i%20), uint16(1000+i%100), 800, int64(i)*10000)
		sw.Process(&p)
	}
	sw.Flush()
	if r := sw.Stats().AggregationRatio(); r > 0.2 {
		t.Errorf("aggregation ratio %g, want < 0.2 (>80%% reduction)", r)
	}
}

func TestGPVBankLinearCost(t *testing.T) {
	plan := multiGranPlan(t)
	cfg := tinyConfig()
	_, sink := collectSink()
	bank, err := NewGPVBank(cfg, plan, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(bank.switches) != 2 {
		t.Fatalf("granularities = %d", len(bank.switches))
	}
	const n = 200
	for i := 0; i < n; i++ {
		p := pkt(byte(i%3), 1, uint16(1000+i%11), 100, int64(i)*1000)
		bank.Process(&p)
	}
	bank.Flush()
	st := bank.Stats()
	// GPV batches every packet once per granularity.
	if st.CellsOut != 2*n {
		t.Errorf("GPV cells = %d, want %d", st.CellsOut, 2*n)
	}
	// Memory is the per-granularity sum.
	single := ConfiguredMemoryBytes(cfg, plan)
	if bank.ConfiguredMemoryBytes(cfg) <= single {
		t.Error("GPV bank memory should exceed single MGPV deployment")
	}
}

func TestEstimateResourcesMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	single := EstimateResources(cfg, flowPlan(t, flowkey.GranFlow))
	multi := EstimateResources(cfg, multiGranPlan(t))
	if multi.Tables < single.Tables || multi.SALUs < single.SALUs || multi.SRAM < single.SRAM {
		t.Errorf("multi-granularity plan must not use fewer resources: %+v vs %+v", multi, single)
	}
	for _, r := range []Resources{single, multi} {
		for _, v := range []float64{r.Tables, r.SALUs, r.SRAM} {
			if v <= 0 || v > 1 {
				t.Errorf("utilization out of range: %+v", r)
			}
		}
	}
}

func TestActiveOccupied(t *testing.T) {
	_, sink := collectSink()
	cfg := tinyConfig()
	cfg.NumShort = 256 // avoid hash collisions between the two test flows
	sw, _ := New(cfg, flowPlan(t, flowkey.GranFlow), sink)
	p := pkt(1, 1, 1000, 100, 0)
	sw.Process(&p)
	q := pkt(2, 2, 2000, 100, 1_000_000)
	sw.Process(&q)
	active, occupied := sw.ActiveOccupied(10_000)
	if occupied != 2 {
		t.Fatalf("occupied = %d", occupied)
	}
	if active != 1 {
		t.Errorf("active = %d, want 1 (first flow idle beyond window)", active)
	}
}

// mallocs returns how many heap objects run allocates, each time
// after a fresh, unmeasured setup: the fewest over three tries, since
// the count is deterministic and the runtime's and the test
// framework's own allocations can only add to it. The collector is
// off while run runs.
func mallocs(setup, run func()) uint64 {
	fewest := ^uint64(0)
	for i := 0; i < 3; i++ {
		setup()
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestColdPassAllocs pins the switch's storage to deploy time: New
// sizes every register array once, so its allocation count is the
// same for 2 long buffers as for 4096, and a fresh ZeroCopy switch
// at the prototype geometry then runs a cold trace — every group new,
// every slot untouched — through ProcessColumns and Flush without a
// single allocation. testing.AllocsPerRun would warm the switch first
// and hide exactly the cold cost, so every measured pass is a fresh
// switch's first.
func TestColdPassAllocs(t *testing.T) {
	plan := filteredMultiGranPlan(t)
	var sw *Switch
	var cells int
	deploy := func(cfg Config) func() {
		return func() {
			var err error
			sw, err = New(cfg, plan, func(m gpv.Message) {
				if m.MGPV != nil {
					cells += len(m.MGPV.Cells)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	wide := tinyConfig()
	wide.NumLong = 4096
	nothing := func() {}
	tiny := mallocs(nothing, deploy(tinyConfig()))
	wideN := mallocs(nothing, deploy(wide))
	def := mallocs(nothing, deploy(DefaultConfig()))
	if wideN != tiny || def != tiny {
		t.Errorf("New allocates %d times at NumLong=%d, %d at %d, %d at DefaultConfig: want one count for every geometry",
			tiny, tinyConfig().NumLong, wideN, wide.NumLong, def)
	}

	pkts := mixedTrace(17, 3000)
	var batches []*Columns
	for i := range pkts {
		if i%256 == 0 {
			batches = append(batches, NewColumns(256, len(plan.MetadataFields)))
		}
		p, cols := &pkts[i], batches[len(batches)-1]
		key, _ := flowkey.KeyFor(plan.CG, p.Tuple)
		cols.Append(p, key, flowkey.HashKey(key), plan.Pred.Eval(p), plan.MetadataFields)
	}
	cfg := DefaultConfig()
	cfg.ZeroCopy = true
	n := mallocs(func() { cells = 0; deploy(cfg)() }, func() {
		for _, cols := range batches {
			sw.ProcessColumns(cols)
		}
		sw.Flush()
	})
	if n != 0 {
		t.Errorf("cold pass of %d packets allocated %d times, want 0", len(pkts), n)
	}
	if st := sw.Stats(); cells == 0 || uint64(cells) != st.CellsOut {
		t.Errorf("cold pass delivered %d cells, stats say %d", cells, st.CellsOut)
	}
}

// TestRegisterArraysMatchMemoryModel holds the Figure 13 memory
// figure to the storage that runs: for 0, 1 and 2 batched metadata
// fields, single- and multi-granularity, the bytes of the switch's
// two register arrays are exactly the cell terms of
// ConfiguredMemoryBytes — the terms that vanish with zero-cell
// buffers.
func TestRegisterArraysMatchMemoryModel(t *testing.T) {
	layouts := [][]packet.FieldName{nil, {packet.FieldSize}, {packet.FieldSize, packet.FieldTimestamp}}
	for _, base := range []policy.SwitchPlan{flowPlan(t, flowkey.GranFlow), multiGranPlan(t)} {
		for _, fields := range layouts {
			plan := base
			plan.MetadataFields = fields
			for _, cfg := range []Config{tinyConfig(), DefaultConfig()} {
				sw, err := New(cfg, plan, func(gpv.Message) {})
				if err != nil {
					t.Fatal(err)
				}
				noCells := cfg
				noCells.ShortBufCells, noCells.LongBufCells = 0, 0
				model := ConfiguredMemoryBytes(cfg, plan) - ConfiguredMemoryBytes(noCells, plan)
				if got := 4 * (len(sw.shortBuf) + len(sw.longBuf)); got != model {
					t.Errorf("%d fields, chain %v, %d short slots: register arrays hold %d bytes, ConfiguredMemoryBytes prices %d",
						len(fields), plan.Chain, cfg.NumShort, got, model)
				}
			}
		}
	}
}

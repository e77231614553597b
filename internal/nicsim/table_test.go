package nicsim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/baseline"
	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

func flowKey(i int) flowkey.Key {
	return flowkey.Key{Gran: flowkey.GranFlow, Tuple: flowkey.FiveTuple{
		SrcIP: uint32(i) * 2654435761, DstIP: uint32(i), SrcPort: uint16(i), DstPort: uint16(i >> 16), Proto: flowkey.ProtoTCP}}
}

// same reports whether two records are one group: records never move,
// so a group is named by where its first word lives.
func same(x, y record) bool { return len(x) > 0 && len(y) > 0 && &x[0] == &y[0] }

// TestGroupTableGrowth admits enough keys for seven doublings of the index and
// checks, after every insert that grew the index, that each key still
// finds the record it was given (records never move), stamped with its
// key and clear of its neighbours, and that absent keys miss. A record
// wider than a block's byte budget (a flow's 1<<18-bin histogram, 1 MiB)
// gets a block of its own, not groupBlock of them.
func TestGroupTableGrowth(t *testing.T) {
	const stride = recHeader + 3
	tb := newGroupTable(stride)
	const n = 5000
	var groups []record
	doublings := 0
	for i := 0; i < n; i++ {
		k := flowKey(i)
		a, b := k.Words()
		h := flowkey.HashKey(k)
		if tb.lookup(h, a, b) != 0 {
			t.Fatalf("key %d found before it was inserted", i)
		}
		size := len(tb.index)
		g := tb.insert(h, a, b)
		if len(g) != stride || cap(g) != stride || g.key() != k {
			t.Fatalf("record %d: len %d cap %d key %v, want %d %d %v", i, len(g), cap(g), g.key(), stride, stride, k)
		}
		g[stride-1] = uint64(i) // the last word: a neighbour's write would land here
		groups = append(groups, g)
		if len(tb.index) == size && i != n-1 {
			continue
		}
		doublings++
		for j, want := range groups {
			kj := flowKey(j)
			aj, bj := kj.Words()
			if got := tb.lookup(flowkey.HashKey(kj), aj, bj); got != uint32(j+1) {
				t.Fatalf("after %d inserts (index %d): key %d does not resolve to the record it was admitted as", i+1, len(tb.index), j)
			}
			if !same(tb.at(j), want) || want[stride-1] != uint64(j) {
				t.Fatalf("group %d is not at its admission position, or was overwritten", j)
			}
		}
	}
	if doublings < 5 || tb.n != n {
		t.Fatalf("%d doublings, %d groups; want ≥ 5 doublings and %d groups", doublings, tb.n, n)
	}
	if 4*tb.n > 3*len(tb.index) {
		t.Errorf("load %d/%d is past 3/4", tb.n, len(tb.index))
	}

	wide := newGroupTable(recHeader + 1<<17)
	for i := range 2 {
		k := flowKey(i)
		a, b := k.Words()
		if g := wide.insert(flowkey.HashKey(k), a, b); g.key() != k || wide.lookup(flowkey.HashKey(k), a, b) != uint32(i+1) {
			t.Fatalf("wide record %d does not resolve to its key", i)
		}
	}
	if wide.perBlock != 1 || len(wide.blocks) != 2 || len(wide.blocks[0]) != wide.stride {
		t.Errorf("a %d-word record: %d record(s) a block, %d block(s) of %d words for 2 records; want 1 a block",
			wide.stride, wide.perBlock, len(wide.blocks), len(wide.blocks[0]))
	}
}

// TestGroupTableProbeWraps makes three keys share a hash whose home is
// the last slot: the second and third land in slots 0 and 1.
func TestGroupTableProbeWraps(t *testing.T) {
	tb := newGroupTable(recHeader)
	last := uint32(len(tb.index) - 1)
	h := uint32(0)
	for tb.home(h) != last {
		h++
	}
	var want []record
	for i := 0; i < 3; i++ {
		a, b := flowKey(i).Words()
		want = append(want, tb.insert(h, a, b))
	}
	for i, slot := range []uint32{last, 0, 1} {
		if ref := tb.index[slot].ref; ref != uint32(i+1) {
			t.Errorf("slot %d holds ref %d, want %d", slot, ref, i+1)
		}
		a, b := flowKey(i).Words()
		if got := tb.lookup(h, a, b); got == 0 || !same(tb.at(int(got-1)), want[i]) {
			t.Errorf("key %d not found past the wrap", i)
		}
	}
	if a, b := flowKey(3).Words(); tb.lookup(h, a, b) != 0 {
		t.Error("absent key found")
	}
}

// TestGroupTableShardKeys admits only keys one shard of four is routed
// (flowkey.HashKey's top two bits fixed) and bounds the longest probe
// run: an index homed on the hash's top bits as they are would start
// every probe in one quarter of its slots.
func TestGroupTableShardKeys(t *testing.T) {
	tb := newGroupTable(recHeader)
	for i := 0; tb.n < 20000; i++ {
		k := flowKey(i)
		if h := flowkey.HashKey(k); h>>30 == 2 {
			a, b := k.Words()
			tb.insert(h, a, b)
		}
	}
	mask := uint32(len(tb.index) - 1)
	longest := uint32(0)
	for i, s := range tb.index {
		if s.ref != 0 {
			longest = max(longest, (uint32(i)-tb.home(s.hash))&mask)
		}
	}
	if longest > 64 {
		t.Errorf("a probe runs %d slots past its home in an index of %d", longest, len(tb.index))
	}
}

// TestSameHashStreamStaysCorrect is the adversarial stream: every MGPV
// carries the same hash, so every CG probe starts at one slot and the
// table degrades to a linear scan — slow, and still the reference
// vectors, because the hash never decides identity. What a stream that
// breaks the carried-hash contract (core's KeyHashOK quarantine
// enforces it) cannot have is a CG key arriving any other way than on
// its own MGPV: a per-group chain's Flush and a cell misattributed by
// an FG overwrite both hash the CG key with flowkey.HashKey, so
// the list is a single-granularity policy and a per-packet chain on a
// trace without FG overwrites.
func TestSameHashStreamStaysCorrect(t *testing.T) {
	wl := trace.CampusConfig
	wl.Flows = 150
	tr := trace.Generate(wl, 8)
	for _, build := range []func() *policy.Policy{apps.NPOD, apps.Kitsune} {
		pol := build()
		t.Run(pol.Name(), func(t *testing.T) {
			st, _ := teeRun(t, pol, tr, switchsim.DefaultConfig(), nil, func(v *gpv.MGPV) { v.Hash = 0xdeadbeef })
			if st.FGOverwrites != 0 {
				t.Fatalf("fixture has %d FG overwrites; pick a trace with none", st.FGOverwrites)
			}
		})
	}
}

// TestFlushOrderIsAdmissionOrder admits distinct flow keys in random
// order and requires Flush to emit them in the order they were admitted
// (the order baseline.Interpreter emits its groups in): keys drawn from
// tiny field alphabets (many pairs differ only in Proto, only in one
// port, only in DstIP); thousands of random keys over many 64-record
// blocks, differing in every byte; keys sharing every field but one
// port; and the empty and one-group tables. A second Flush must emit
// the same sequence without allocating.
func TestFlushOrderIsAdmissionOrder(t *testing.T) {
	plan := compile(t, statsPolicy())
	rng := rand.New(rand.NewSource(1))
	pick := func(xs ...uint32) uint32 { return xs[rng.Intn(len(xs))] }
	random := func() flowkey.FiveTuple {
		return flowkey.FiveTuple{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: flowkey.Proto(rng.Uint32())}
	}
	for _, tc := range []struct {
		name string
		n    int
		tup  func() flowkey.FiveTuple
	}{
		{"tiny-alphabets", 400, func() flowkey.FiveTuple {
			return flowkey.FiveTuple{
				SrcIP: pick(1, 2, 1<<31, ^uint32(0)), DstIP: pick(0, 7, 1<<31, ^uint32(0)),
				SrcPort: uint16(pick(0, 80, 65535)), DstPort: uint16(pick(0, 443, 65535)),
				Proto: flowkey.Proto(pick(0, 6, 17, 255)),
			}
		}},
		{"every-byte", 6000, random},
		{"one-port", 5000, func() flowkey.FiveTuple {
			return flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 0, 0, 1), DstIP: flowkey.IPv4(10, 0, 1, 2),
				SrcPort: 443, DstPort: uint16(rng.Uint32()), Proto: flowkey.ProtoTCP}
		}},
		{"empty", 0, random},
		{"one", 1, random},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []flowkey.Key
			rt, err := NewRuntime(DefaultConfig(), plan, func(v feature.Vector) { got = append(got, v.Key) })
			if err != nil {
				t.Fatal(err)
			}
			seen := map[flowkey.Key]bool{}
			var want []flowkey.Key
			for len(want) < tc.n {
				k, _ := flowkey.KeyFor(flowkey.GranFlow, tc.tup())
				cell := gpv.Cell{Values: make([]uint32, len(plan.Switch.MetadataFields)), Forward: true}
				rt.Process(gpv.Message{MGPV: &gpv.MGPV{CG: k, Hash: flowkey.HashKey(k), Cells: []gpv.Cell{cell}}})
				if !seen[k] { // a repeat adds a cell to its group, not a group
					seen[k] = true
					want = append(want, k)
				}
			}
			rt.Flush()
			if !slices.Equal(got, want) {
				t.Fatalf("Flush order differs from admission order (%d emitted, %d admitted)", len(got), len(want))
			}
			if allocs := testing.AllocsPerRun(3, func() {
				got = got[:0]
				rt.Flush()
			}); allocs != 0 {
				t.Errorf("a second Flush allocates %.1f times", allocs)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("a second Flush emitted another sequence (%d vectors, want %d)", len(got), len(want))
			}
		})
	}
}

// TestFlushMemoInAdmissionOrder drains a host → flow chain whose flows
// were admitted round robin over four hosts, so no two consecutive FG
// groups share a host, under a scoped EMEM plan that fails every
// admission of host D's group and none of its flows'. Flush's
// coarser-group memo must re-probe at each change of host: every flow
// carries exactly its own host's features, D's flows none, bit for bit
// and in sequence against baseline.Interpreter.
func TestFlushMemoInAdmissionOrder(t *testing.T) {
	plan := compile(t, policy.New("host-flow").
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RF(streaming.FMean), policy.RF(streaming.FSum)).
		Collect().
		GroupBy(flowkey.GranFlow).
		Reduce("size", policy.RF(streaming.FMax)).
		Collect())
	const hosts, flows = 4, 3
	hostD := flowkey.Key{Gran: flowkey.GranHost, Tuple: flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 0, 0, hosts)}}
	// At seed 26 the scoped stream draws fail, pass, fail, pass, fail,
	// pass: each of D's one-cell flows loses its host admission and
	// wins its own.
	fp := &faults.Plan{Seed: 26, Rate: 0.5, Kinds: 1 << faults.KindEMEMFail,
		ScopeLo: flowkey.HashKey(hostD), ScopeHi: flowkey.HashKey(hostD)}
	var got, want []feature.Vector
	cfg := DefaultConfig()
	cfg.Faults = fp.NewInjector(0)
	rt, err := NewRuntime(cfg, plan, feature.Collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.NewInterpreter(plan, feature.Collect(&want), fp.NewInjector(0))
	process := func(m gpv.Message) {
		rt.Process(m)
		ref.Process(m)
	}
	sizePos := slices.Index(plan.Switch.MetadataFields, packet.FieldSize)
	for f := range flows {
		for h := 1; h <= hosts; h++ {
			tup := flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 0, 0, byte(h)), DstIP: flowkey.IPv4(172, 16, byte(h), byte(f)),
				SrcPort: uint16(1000 + f), DstPort: 443, Proto: flowkey.ProtoTCP}
			idx := uint16(flows*h + f)
			process(gpv.Message{FG: &gpv.FGUpdate{Index: idx, Key: tup}})
			host, _ := flowkey.KeyFor(flowkey.GranHost, tup)
			v := &gpv.MGPV{CG: host, Hash: flowkey.HashKey(host)}
			for c := range 1 + (h%2)*(f+1) {
				cell := gpv.Cell{FGIndex: idx, Forward: true, Values: make([]uint32, len(plan.Switch.MetadataFields))}
				cell.Values[sizePos] = uint32(100*h + 10*f + c)
				v.Cells = append(v.Cells, cell)
			}
			process(gpv.Message{MGPV: v})
		}
	}
	rt.Flush()
	ref.Flush()
	for _, pr := range rt.programs {
		if a, b := hostD.Words(); pr.gran == flowkey.GranHost && (pr.table.n != hosts-1 || pr.table.lookup(flowkey.HashKey(hostD), a, b) != 0) {
			t.Fatalf("%d host groups, D's among them; the fault plan no longer drops exactly host D", pr.table.n)
		}
	}
	if len(got) != hosts*flows || len(want) != len(got) {
		t.Fatalf("%d vectors, reference %d, want %d", len(got), len(want), hosts*flows)
	}
	for i, w := range want {
		g := got[i]
		dim := 3
		if w.Key.Tuple.SrcIP == hostD.Tuple.SrcIP {
			dim = 1
		}
		if g.Key != w.Key || g.Timestamp != w.Timestamp || len(g.Values) != len(w.Values) || len(w.Values) != dim {
			t.Fatalf("vector %d: %v@%d dim %d, reference %v@%d dim %d, want dim %d", i, g.Key, g.Timestamp, len(g.Values),
				w.Key, w.Timestamp, len(w.Values), dim)
		}
		for j, x := range w.Values {
			if math.Float64bits(g.Values[j]) != math.Float64bits(x) {
				t.Fatalf("vector %d (%v) feature %d: %v, reference %v", i, w.Key, j, g.Values[j], x)
			}
		}
	}
}

// BenchmarkFlush prices the end-of-trace drain per FG group: a single
// granularity (NPOD, flow) and the host/channel/socket chain (N-BaIoT),
// whose coarser groups the drain finds by projecting each FG key. Each
// admits ~40 k groups from an ENTERPRISE-shaped trace; groups are kept,
// so every iteration re-drains the same warm tables. cold/<policy>
// instead times a fresh runtime's first Flush, after an untimed replay
// of the captured switch stream, as at the end of a trace.
func BenchmarkFlush(b *testing.B) {
	for _, tc := range []struct {
		pol   func() *policy.Policy
		flows int
	}{
		{apps.NPOD, 23000},
		{apps.NBaIoT, 51000},
	} {
		plan, err := policy.Compile(tc.pol())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(plan.Policy.Name(), func(b *testing.B) {
			wl := trace.EnterpriseConfig
			wl.Flows = tc.flows
			tr := trace.Generate(wl, 42)
			rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
			if err != nil {
				b.Fatal(err)
			}
			sw, err := switchsim.New(switchsim.DefaultConfig(), plan.Switch, rt.Process)
			if err != nil {
				b.Fatal(err)
			}
			for i := range tr.Packets {
				sw.Process(&tr.Packets[i])
			}
			sw.Flush()
			rt.Flush() // grows the vector buffer
			groups := rt.fgProg.table.n
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(groups), "ns/group")
			b.ReportMetric(float64(groups), "groups")
		})
		b.Run("cold/"+plan.Policy.Name(), func(b *testing.B) {
			wl := trace.EnterpriseConfig
			wl.Flows = tc.flows
			msgs := capture(b, plan, trace.Generate(wl, 42))
			groups := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					rt.Process(m)
				}
				groups = rt.fgProg.table.n
				b.StartTimer()
				rt.Flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(groups), "ns/group")
			b.ReportMetric(float64(groups), "groups")
		})
	}
}

// TestFaultedReplayPinned replays fixed traces under the CLI's
// `-faults seed=3,rate=0.05,kinds=nic` plan, whose EMEM failures are
// drawn once per lookup miss in cell order: a table that probed,
// missed or admitted in any other order than the map it replaced would
// move every number below. So would another flowkey.HashKey: the
// switch's slots and FG indices decide the order cells arrive in.
// Kitsune's row is its per-packet read-out, 115 values a packet, on a
// CAMPUS-shaped trace whose FG table overwrites live keys: the digest
// moves with any bit of any feature of any granularity. The per-group
// rows hash Flush's vectors in key order, so their digests pin the
// features; the order Flush emits them in is
// TestFlushOrderIsAdmissionOrder's and teeRun's to hold.
func TestFaultedReplayPinned(t *testing.T) {
	fp, err := faults.Parse("seed=3,rate=0.05,kinds=nic")
	if err != nil {
		t.Fatal(err)
	}
	enterprise, campus := trace.EnterpriseConfig, trace.CampusConfig
	enterprise.Flows, campus.Flows = 2000, 2000
	for _, tc := range []struct {
		pol                  func() *policy.Policy
		wl                   trace.WorkloadConfig
		overwrites           uint64 // FG-table entries that replaced a live key
		drops, vectors, live uint64
		digest               uint64
	}{
		{apps.NPOD, enterprise, 0, 180, 3457, 3457, 0xeddd8e0ee0746c36},
		{apps.NBaIoT, enterprise, 139, 179, 1878, 3403, 0xbdad00b3ca4d8ad2},
		{apps.Kitsune, campus, 711, 447, 126896, 8501, 0x602d21b22a63e22d},
	} {
		plan, err := policy.Compile(tc.pol())
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(tc.wl, 42)
		h := fnv.New64a()
		word := func(x uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
		hash := func(v feature.Vector) {
			k := v.Key.Tuple
			word(uint64(k.SrcIP)<<32 | uint64(k.DstIP))
			word(uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto))
			for _, x := range v.Values {
				word(math.Float64bits(x))
			}
		}
		var flushed []feature.Vector
		flushing := false
		cfg := DefaultConfig()
		cfg.Faults = fp.NewInjector(0)
		rt, err := NewRuntime(cfg, plan, func(v feature.Vector) {
			if flushing {
				v.Values = slices.Clone(v.Values)
				flushed = append(flushed, v)
				return
			}
			hash(v)
		})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := switchsim.New(switchsim.DefaultConfig(), plan.Switch, rt.Process)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			sw.Process(&tr.Packets[i])
		}
		sw.Flush()
		flushing = true
		rt.Flush()
		sort.Slice(flushed, func(i, j int) bool { return flushed[i].Key.Tuple.Less(flushed[j].Key.Tuple) })
		for _, v := range flushed {
			hash(v)
		}
		if got := sw.Stats().FGOverwrites; got != tc.overwrites {
			t.Errorf("%s: %d FG-table overwrites, pinned %d", plan.Policy.Name(), got, tc.overwrites)
		}
		st := rt.Stats()
		if st.EMEMDrops != tc.drops || st.Vectors != tc.vectors || uint64(st.GroupsLive) != tc.live || h.Sum64() != tc.digest {
			t.Errorf("%s: EMEMDrops=%d Vectors=%d GroupsLive=%d digest=%#x, pinned %d %d %d %#x",
				plan.Policy.Name(), st.EMEMDrops, st.Vectors, st.GroupsLive, h.Sum64(), tc.drops, tc.vectors, tc.live, tc.digest)
		}
	}
}

// TestAdmissionAllocs holds the cold path: admitting 64·k NPOD groups
// costs one block of records every 64 admissions plus the index
// doublings (0.022 an admission; 0.131 when every reducer family carved
// blocks of its own) — not a heap object per group or per state.
func TestAdmissionAllocs(t *testing.T) {
	plan, err := policy.Compile(apps.NPOD())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 * 32
	msgs := make([]gpv.Message, n)
	for i := range msgs {
		k := flowKey(i)
		cell := gpv.Cell{Values: make([]uint32, len(plan.Switch.MetadataFields)), Forward: true}
		msgs[i] = gpv.Message{MGPV: &gpv.MGPV{CG: k, Hash: flowkey.HashKey(k), Cells: []gpv.Cell{cell}}}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range msgs {
		rt.Process(msgs[i])
	}
	runtime.ReadMemStats(&after)
	if got := rt.Stats().GroupsLive; got != n {
		t.Fatalf("%d groups admitted, want %d", got, n)
	}
	if per := float64(after.Mallocs-before.Mallocs) / n; per >= 0.04 {
		t.Errorf("%.3f allocations per admitted group, want < 0.04", per)
	}
}

// BenchmarkAdmission prices a group's admission on its own, the NIC
// work a trace of short flows does most (npod-enterprise): each
// iteration deploys a fresh NPOD runtime, untimed, and times the first
// cell of every flow of a MAWI-shaped capture, each admitting its group
// (a missed probe, an insert, the record's first cell). It reports
// ns/group and the record bytes the table holds per group, its blocks
// over its groups.
func BenchmarkAdmission(b *testing.B) {
	plan, err := policy.Compile(apps.NPOD())
	if err != nil {
		b.Fatal(err)
	}
	wl := trace.MAWIConfig
	wl.Flows = 4000
	// The first MGPV of each group, cut to its first cell.
	var msgs []gpv.Message
	seen := map[flowkey.Key]bool{}
	for _, m := range capture(b, plan, trace.Generate(wl, 42)) {
		if v := m.MGPV; v != nil && !seen[v.CG] {
			seen[v.CG] = true
			first := *v
			first.Cells = first.Cells[:1]
			msgs = append(msgs, gpv.Message{MGPV: &first})
		}
	}
	var rt *Runtime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rt, err = NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, m := range msgs {
			rt.Process(m)
		}
	}
	b.StopTimer()
	t := &rt.fgProg.table
	if t.n != len(msgs) {
		b.Fatalf("%d groups admitted from %d first cells", t.n, len(msgs))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(t.n), "ns/group")
	b.ReportMetric(float64(8*len(t.blocks)*t.perBlock*t.stride)/float64(t.n), "record-B/group")
	b.ReportMetric(float64(t.n), "groups")
}

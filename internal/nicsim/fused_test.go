package nicsim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"superfe/internal/apps"
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

// refNIC is the FE-NIC without the lowering: it walks the policy's ops
// for every cell, resolves keys by name, and keeps one private
// streaming.New reducer per reduce spec. It shares no code with
// compileProgram, runCell or Flush, so it is the oracle for what the
// op table and its shared state families must compute
// (baseline.Extractor wraps Runtime and cannot be).
type refNIC struct {
	plan   *policy.Plan
	pos    map[packet.FieldName]int
	fg     map[uint16]flowkey.FiveTuple
	groups map[flowkey.Key]*refGroup
	out    []feature.Vector
	// inj, when set, fails group admissions as the Runtime's injector
	// does: one draw per cell and granularity whose group is missing, in
	// order, so two injectors of one plan stay in step.
	inj *faults.Injector
}

type refGroup struct {
	reducers map[[2]int]streaming.Reducer // (op index, spec index)
	last     map[int]int64                // map op index → previous timestamp
	bursts   map[int]int64
	lastTS   uint32
	// clock is the latest time any cell carried, the 32-bit timestamps
	// unwrapped: what the reducers are shown instead of the raw ts.
	clock   int64
	started bool
}

func newRefNIC(plan *policy.Plan) *refNIC {
	n := &refNIC{plan: plan, pos: map[packet.FieldName]int{},
		fg: map[uint16]flowkey.FiveTuple{}, groups: map[flowkey.Key]*refGroup{}}
	for i, f := range plan.Switch.MetadataFields {
		n.pos[f] = i
	}
	return n
}

func (n *refNIC) single() bool {
	return len(n.plan.Switch.Chain) == 1 && n.plan.Switch.CG == n.plan.Switch.FG
}

func (n *refNIC) emit(key flowkey.Key, ts int64, vals []float64) {
	n.out = append(n.out, feature.Vector{Key: key, Timestamp: ts, Values: vals})
}

func (n *refNIC) process(m gpv.Message) {
	if m.FG != nil {
		n.fg[m.FG.Index] = m.FG.Key
		return
	}
	v := m.MGPV
	for ci := range v.Cells {
		cell := &v.Cells[ci]
		tuple := v.CG.Tuple
		if !n.single() {
			var ok bool
			if tuple, ok = n.fg[cell.FGIndex]; !ok {
				continue
			}
		}
		if !cell.Forward {
			tuple = tuple.Reverse()
		}
		var vals []float64
		perPacket := false
		for _, gran := range n.plan.Switch.Chain {
			key, fwd := v.CG, cell.Forward
			if !n.single() {
				key, fwd = flowkey.KeyFor(gran, tuple)
			}
			g := n.groups[key]
			if g == nil {
				if n.inj.EMEMFail(v.Hash) {
					continue // this granularity loses the cell
				}
				g = &refGroup{reducers: map[[2]int]streaming.Reducer{}, last: map[int]int64{}, bursts: map[int]int64{}}
				n.groups[key] = g
			}
			var emitted bool
			vals, emitted = n.cell(gran, g, cell, fwd, vals)
			perPacket = perPacket || emitted
		}
		if perPacket {
			key := v.CG
			if !n.single() {
				key, _ = flowkey.KeyFor(n.plan.Switch.FG, tuple)
			}
			n.emit(key, n.field(cell, packet.FieldTimestamp), vals)
		}
	}
}

func (n *refNIC) field(cell *gpv.Cell, f packet.FieldName) int64 {
	if p, ok := n.pos[f]; ok {
		return int64(cell.Values[p])
	}
	return 0
}

// cell runs gran's ops over one cell and appends the per-packet
// collects to vals.
func (n *refNIC) cell(gran flowkey.Granularity, g *refGroup, cell *gpv.Cell, fwd bool, vals []float64) ([]float64, bool) {
	ts := uint32(n.field(cell, packet.FieldTimestamp))
	now := int64(ts)
	if g.started {
		now = g.clock + int64(int32(ts-uint32(g.clock)))
	}
	if !g.started || now > g.clock {
		g.clock, g.started = now, true
	}
	env := map[string]int64{}
	load := func(name string) int64 {
		if x, ok := env[name]; ok {
			return x
		}
		f, _ := policy.BuiltinField(name)
		return n.field(cell, f)
	}
	for oi, op := range n.plan.Policy.Ops() {
		if op.Gran != gran {
			continue
		}
		switch op.Kind {
		case policy.OpMap:
			var src int64
			switch op.Src.Kind {
			case policy.SourceField:
				src = n.field(cell, op.Src.Field)
			case policy.SourceKey:
				src = load(op.Src.Key)
			}
			prev, seen := g.last[oi]
			var out int64
			switch op.MapF {
			case policy.MapOne:
				out = 1
			case policy.MapIdentity:
				out = src
			case policy.MapDirection:
				out = src
				if !fwd {
					out = -src
				}
			case policy.MapIPT:
				if seen {
					out = int64(uint32(src) - uint32(prev))
				}
				g.last[oi] = src
			case policy.MapSpeed:
				if dt := int64(ts - uint32(prev)); seen && dt > 0 {
					out = src * 1e9 / dt
				}
				g.last[oi] = int64(ts)
			case policy.MapBurst:
				if !seen || int64(uint32(src)-uint32(prev)) > op.BurstNS {
					g.bursts[oi]++
				}
				g.last[oi] = src
				out = g.bursts[oi]
			}
			env[op.Dst] = out
		case policy.OpReduce:
			x := load(op.ReduceSrc)
			for si, rf := range op.Reducers {
				r := g.reducers[[2]int{oi, si}]
				if r == nil {
					r, _ = streaming.New(rf.Func, rf.Params)
					g.reducers[[2]int{oi, si}] = r
				}
				r.Observe(x, now)
			}
		}
	}
	g.lastTS = ts
	return n.collect(gran, g, true, vals)
}

// collect appends the features of gran's per-packet (or per-group)
// collects: the reduces since the previous collect, in order, passed
// through any synthesize between them and the collect.
func (n *refNIC) collect(gran flowkey.Granularity, g *refGroup, perPacket bool, vals []float64) ([]float64, bool) {
	var pending []float64
	var synth []policy.Op
	emitted := false
	for oi, op := range n.plan.Policy.Ops() {
		if op.Gran != gran {
			continue
		}
		switch op.Kind {
		case policy.OpReduce:
			for si, rf := range op.Reducers {
				r := g.reducers[[2]int{oi, si}]
				pending = append(pending, streaming.Features(r, streaming.ViewOf(rf.Func, rf.Params))...)
			}
		case policy.OpSynthesize:
			synth = append(synth, op)
		case policy.OpCollect:
			if op.PerPacket == perPacket {
				for _, s := range synth {
					pending = applySynth(s, pending)
				}
				vals = append(vals, pending...)
				emitted = true
			}
			pending, synth = nil, nil
		}
	}
	return vals, emitted
}

func (n *refNIC) flush() {
	if n.plan.Policy.PerPacket() {
		return
	}
	var keys []flowkey.Key
	for k := range n.groups {
		if k.Gran == n.plan.Switch.FG {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y flowkey.Key) int {
		a, b := x.Tuple, y.Tuple
		return cmp.Or(cmp.Compare(a.SrcIP, b.SrcIP), cmp.Compare(a.DstIP, b.DstIP), cmp.Compare(a.SrcPort, b.SrcPort),
			cmp.Compare(a.DstPort, b.DstPort), cmp.Compare(a.Proto, b.Proto))
	})
	for _, k := range keys {
		var vals []float64
		for _, gran := range n.plan.Switch.Chain {
			pk := k
			if gran != k.Gran {
				pk = flowkey.Project(gran, k.Tuple)
			}
			if pg := n.groups[pk]; pg != nil {
				vals, _ = n.collect(gran, pg, false, vals)
			}
		}
		if len(vals) > 0 {
			n.emit(k, int64(n.groups[k].lastTS), vals)
		}
	}
}

// sharingEdges is a policy built to sit on the edges of state sharing:
// a map key redefined between two reduces of it (the two must not
// share) and read again afterwards (that one shares with the second),
// a new key defined after the redefinition, one family fed by several
// reduce ops, equal specs twice, every view of the histogram family,
// and a synthesize over a shared f_array.
func sharingEdges() *policy.Policy {
	hist := func(f streaming.Func, q float64) policy.ReduceSpec {
		return policy.ReduceSpec{Func: f, Params: streaming.Params{BinWidth: 100, Bins: 8, Quantile: q}}
	}
	return policy.New("sharing-edges").
		GroupBy(flowkey.GranHost).
		Map("v", policy.SrcField(packet.FieldSize), policy.MapIdentity).
		Reduce("v", policy.RF(streaming.FMean), policy.RF(streaming.FSum)).
		Collect().
		Map("v", policy.SrcField(packet.FieldTimestamp), policy.MapIPT).
		Reduce("v", policy.RF(streaming.FVar), policy.RF(streaming.FSum), policy.RF(streaming.FSum)).
		Collect().
		Map("w", policy.SrcKey("v"), policy.MapDirection).
		Reduce("w", policy.RF(streaming.FMax), policy.RF(streaming.FSkew)).
		Collect().
		Reduce("v", policy.RF(streaming.FStd), policy.RF(streaming.FKurtosis)).
		Collect().
		GroupBy(flowkey.GranFlow).
		Map("d", policy.SrcField(packet.FieldSize), policy.MapDirection).
		Reduce("d", policy.RFArray(6)).
		Synthesize(policy.SynthNorm).
		Collect().
		Reduce("d", policy.RFArray(6), policy.RF(streaming.FMag), policy.RF(streaming.FPCC)).
		Collect().
		Reduce("size", hist(streaming.FPercent, 0.5), hist(streaming.FHist, 0), hist(streaming.FPDF, 0)).
		Collect().
		Reduce("size", hist(streaming.FCDF, 0), hist(streaming.FPercent, 0.9), policy.RFHist(100, 9)).
		Collect().
		MustBuild()
}

// TestFusedRuntimeMatchesPrivateReducers tees the switch→NIC stream of
// five applications — the two damped per-packet chains, a
// multi-granularity per-group one, a histogram-heavy one and the
// single-granularity NPOD — and of sharingEdges into the Runtime and
// into refNIC, and compares the vector sequences bit for bit.
func TestFusedRuntimeMatchesPrivateReducers(t *testing.T) {
	wl := trace.CampusConfig
	wl.Flows = 150
	tr := trace.Generate(wl, 7)
	for _, build := range []func() *policy.Policy{apps.Kitsune, apps.HELAD, apps.NBaIoT, apps.MPTD, apps.NPOD, sharingEdges} {
		pol := build()
		t.Run(pol.Name(), func(t *testing.T) {
			plan, err := policy.Compile(pol)
			if err != nil {
				t.Fatal(err)
			}
			var got []feature.Vector
			rt, err := NewRuntime(DefaultConfig(), plan, feature.Collect(&got))
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefNIC(plan)
			// A small FG table, so that the chain policies also see
			// overwritten FG indices.
			scfg := switchsim.DefaultConfig()
			scfg.FGTableSize = 64
			sw, err := switchsim.New(scfg, plan.Switch, func(m gpv.Message) {
				rt.Process(m)
				ref.process(m)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Packets {
				sw.Process(&tr.Packets[i])
			}
			sw.Flush()
			rt.Flush()
			ref.flush()
			if len(got) != len(ref.out) || len(got) == 0 {
				t.Fatalf("%d vectors, reference %d", len(got), len(ref.out))
			}
			for i, want := range ref.out {
				if got[i].Key != want.Key || got[i].Timestamp != want.Timestamp || len(got[i].Values) != len(want.Values) {
					t.Fatalf("vector %d: %v@%d dim %d, reference %v@%d dim %d", i, got[i].Key, got[i].Timestamp,
						len(got[i].Values), want.Key, want.Timestamp, len(want.Values))
				}
				for j, x := range want.Values {
					if math.Float64bits(got[i].Values[j]) != math.Float64bits(x) {
						t.Fatalf("vector %d feature %d: %v, reference %v", i, j, got[i].Values[j], x)
					}
				}
			}
		})
	}
}

// TestFusedRuntimeMatchesPrivateReducersUnderEMEMFaults is the same
// differential with admissions failing: a granularity whose admission
// lost the race skips the cell while the others absorb it, so a group's
// first cell is not its packet's first, its clock starts later than its
// neighbours' at other granularities, and per-packet vectors are emitted
// with a granularity missing. The reference fails the same admissions
// from its own injector of the same plan.
func TestFusedRuntimeMatchesPrivateReducersUnderEMEMFaults(t *testing.T) {
	fp, err := faults.Parse("seed=5,rate=0.2,kinds=nic")
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.CampusConfig
	wl.Flows = 150
	tr := trace.Generate(wl, 7)
	for _, build := range []func() *policy.Policy{apps.Kitsune, apps.NBaIoT, sharingEdges} {
		pol := build()
		t.Run(pol.Name(), func(t *testing.T) {
			_, st := teeRunFaulted(t, pol, tr, fp, func(*gpv.MGPV) {})
			if st.EMEMDrops == 0 {
				t.Fatal("no admission failed: the fixture exercises nothing")
			}
		})
	}
}

// TestDecayLanesPerCell counts, from the op table, the decay factors a
// cell can cost the damped catalog policies: one per granularity and
// distinct rate, plus one per 2D state for the direction half whose
// clock is not its group's. Private reducers paid one per 1D state and
// two per 2D state.
func TestDecayLanesPerCell(t *testing.T) {
	for _, tc := range []struct {
		pol             func() *policy.Policy
		private, atMost int
	}{
		{apps.Kitsune, 45, 30},
		{apps.HELAD, 40, 30},
		{apps.NBaIoT, 25, 15},
	} {
		plan, err := policy.Compile(tc.pol())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		private, shared := 0, 0
		for _, pr := range rt.programs {
			shared += len(pr.lanes)
			for _, st := range pr.states {
				switch fam := streaming.FamilyOf(st.fn, st.params).Func; fam {
				case streaming.FDWeight:
					private++
				case streaming.FD2DMag:
					private += 2
					shared++
				}
			}
		}
		if private != tc.private || shared > tc.atMost {
			t.Errorf("%s: %d decay factors per cell on private reducers (want %d), %d on the record (want <= %d)",
				plan.Policy.Name(), private, tc.private, shared, tc.atMost)
		}
	}
}

// TestCompileSharesOneStatePerFamilyAndSource counts the op table's
// states for sharingEdges: one per source and family, every reduce
// spec a view of exactly one, and one per spec under Naive.
func TestCompileSharesOneStatePerFamilyAndSource(t *testing.T) {
	plan, err := policy.Compile(sharingEdges())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		naive        bool
		host, flow   int // states per group
		hostV, flowV int // reduce specs
	}{
		// host: mean(v), sum(v) | var+std(v'), sum+sum(v'), kurtosis(v') | max(w), skew(w)
		// flow: array+array(d), mag+pcc(d), the five 8-bin views (size), hist9(size)
		{naive: false, host: 7, flow: 4, hostV: 9, flowV: 10},
		{naive: true, host: 9, flow: 10, hostV: 9, flowV: 10},
	} {
		cfg := DefaultConfig()
		cfg.Naive = tc.naive
		rt, err := NewRuntime(cfg, plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range [][2]int{{tc.host, tc.hostV}, {tc.flow, tc.flowV}} {
			pr, views := rt.programs[i], 0
			for _, st := range pr.states {
				views += st.views
			}
			if len(pr.states) != want[0] || views != want[1] {
				t.Errorf("naive=%v %s: %d states with %d views, want %d with %d", tc.naive, pr.gran, len(pr.states), views, want[0], want[1])
			}
		}
	}
}

// TestDampedClockSurvivesTimestampWrap: cells carry uint32(ns), which
// wraps every 4.29 s, and a damped group must go on decaying past the
// wrap. A flow is fed by hand — a cell before the wrap, one after it, a
// reordered one behind the clock, one more ahead — and its fd_weight is
// checked against the factors the intervals call for; then Kitsune's
// whole stream, shifted so that it straddles the wrap, is held to the
// reference, which unwraps the same clock for its private reducers.
func TestDampedClockSurvivesTimestampWrap(t *testing.T) {
	plan := compile(t, policy.New("wrap").
		GroupBy(flowkey.GranFlow).
		Reduce("size", policy.RFDamped(streaming.FDWeight, 1)).
		CollectPerPacket())
	var vecs []feature.Vector
	rt, err := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	pkts := flowPkts(4, 100, 0)
	for i, ts := range []int64{4.0e9, 4.5e9, 4.4e9, 5.0e9} { // 2³² ns = 4.295 s
		pkts[i].Timestamp = ts
	}
	rt.Process(mgpvFor(plan, pkts))
	half := streaming.DecayFactor(1, 5e8)
	w := 1.0
	want := []float64{w}
	w = w*half + 1 // idle across the wrap: decayed over 0.5 s
	want = append(want, w)
	w++ // behind the clock: no decay, and the clock stays at 4.5 s
	want = append(want, w)
	w = w*half + 1
	want = append(want, w)
	if len(vecs) != len(want) {
		t.Fatalf("%d vectors, want %d", len(vecs), len(want))
	}
	for i, v := range vecs {
		if math.Float64bits(v.Values[0]) != math.Float64bits(want[i]) {
			t.Errorf("cell %d: fd_weight %v, want %v", i, v.Values[0], want[i])
		}
	}

	kit, err := policy.Compile(apps.Kitsune())
	if err != nil {
		t.Fatal(err)
	}
	tsPos := slices.Index(kit.Switch.MetadataFields, packet.FieldTimestamp)
	wl := trace.CampusConfig
	wl.Flows = 150
	const shift = 0xF8000000 // the trace's first 0.134 s lie before the wrap
	before, after := 0, 0
	teeRun(t, apps.Kitsune(), trace.Generate(wl, 7), func(v *gpv.MGPV) {
		for i := range v.Cells {
			ts := &v.Cells[i].Values[tsPos]
			if *ts += shift; *ts >= shift {
				before++
			} else {
				after++
			}
		}
	})
	if before == 0 || after == 0 {
		t.Fatalf("%d cells before the wrap, %d after: the stream does not straddle it", before, after)
	}
}

package nicsim

import (
	"math"
	"slices"
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

// teeRun replays tr through a switch of scfg whose every message goes,
// after mutate (if any), to a Runtime and to baseline.Interpreter — the
// FE-NIC without the lowering, map-keyed groups with one private
// reducer per spec — each failing EMEM admissions from
// an injector of fp (nil: none fail), and requires bit-identical vector
// sequences. It returns the switch's and the Runtime's counters.
func teeRun(t *testing.T, pol *policy.Policy, tr *trace.Trace, scfg switchsim.Config, fp *faults.Plan, mutate func(*gpv.MGPV)) (switchsim.Stats, RuntimeStats) {
	t.Helper()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []feature.Vector
	cfg := DefaultConfig()
	var inj *faults.Injector
	if fp != nil {
		cfg.Faults, inj = fp.NewInjector(0), fp.NewInjector(0)
	}
	rt, err := NewRuntime(cfg, plan, feature.Collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	ref := baseline.NewInterpreter(plan, feature.Collect(&want), inj)
	sw, err := switchsim.New(scfg, plan.Switch, func(m gpv.Message) {
		if m.MGPV != nil && mutate != nil {
			mutate(m.MGPV)
		}
		rt.Process(m)
		ref.Process(m)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		sw.Process(&tr.Packets[i])
	}
	sw.Flush()
	rt.Flush()
	ref.Flush()
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d vectors, reference %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Key != w.Key || got[i].Timestamp != w.Timestamp || len(got[i].Values) != len(w.Values) {
			t.Fatalf("vector %d: %v@%d dim %d, reference %v@%d dim %d", i, got[i].Key, got[i].Timestamp,
				len(got[i].Values), w.Key, w.Timestamp, len(w.Values))
		}
		for j, x := range w.Values {
			if math.Float64bits(got[i].Values[j]) != math.Float64bits(x) {
				t.Fatalf("vector %d feature %d: %v, reference %v", i, j, got[i].Values[j], x)
			}
		}
	}
	return sw.Stats(), rt.Stats()
}

// sharingEdges is a policy built to sit on the edges of state sharing:
// a map key redefined between two reduces of it (the two must not
// share) and read again afterwards (that one shares with the second),
// then redefined from itself (the map reads the old definition),
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
		Map("v", policy.SrcKey("v"), policy.MapDirection).
		Reduce("v", policy.RF(streaming.FMin)).
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

// cardinalities counts distinct values at sketches of 2, 6 and 16 bits
// on a host and the default size on its flows: f_card on a chain, where
// cells run one at a time.
func cardinalities() *policy.Policy {
	card := func(bits int) policy.ReduceSpec {
		return policy.ReduceSpec{Func: streaming.FCard, Params: streaming.Params{HLLBits: bits}}
	}
	return policy.New("cardinalities").
		GroupBy(flowkey.GranHost).
		Reduce("size", card(2), card(6), card(16)).
		Collect().
		GroupBy(flowkey.GranFlow).
		Map("d", policy.SrcField(packet.FieldSize), policy.MapDirection).
		Reduce("d", card(0), policy.RF(streaming.FSum)).
		Collect().
		MustBuild()
}

// TestFusedRuntimeMatchesPrivateReducers tees the switch→NIC stream of
// seven applications — the two damped per-packet chains, a
// multi-granularity per-group one, a histogram-heavy one, the
// single-granularity NPOD and the f_array ones CUMUL (with ft_sample)
// and TF — and of sharingEdges and cardinalities into the Runtime and
// into the baseline's interpreter, and compares the vector sequences
// bit for bit.
func TestFusedRuntimeMatchesPrivateReducers(t *testing.T) {
	wl := trace.CampusConfig
	wl.Flows = 150
	tr := trace.Generate(wl, 7)
	// A small FG table, so that the chain policies also see overwritten
	// FG indices.
	scfg := switchsim.DefaultConfig()
	scfg.FGTableSize = 64
	for _, build := range []func() *policy.Policy{apps.Kitsune, apps.HELAD, apps.NBaIoT, apps.MPTD, apps.NPOD, apps.CUMUL, apps.TF, sharingEdges, cardinalities} {
		pol := build()
		t.Run(pol.Name(), func(t *testing.T) { teeRun(t, pol, tr, scfg, nil, nil) })
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
			_, st := teeRun(t, pol, tr, switchsim.DefaultConfig(), fp, nil)
			if st.EMEMDrops == 0 {
				t.Fatal("no admission failed: the fixture exercises nothing")
			}
		})
	}
}

// TestDecayLanesPerCell counts, from the op table, the decay factors a
// cell can cost the damped catalog policies: one per granularity and
// distinct rate, plus one per 2D state and rate for the direction half
// whose clock is not its group's. Private reducers paid one per 1D
// state and rate and two per 2D state and rate.
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
				lanes := len(st.kern.Lanes()) // a fused state is one private reducer per lane
				switch fam := streaming.FamilyOf(st.fn, st.params).Func; fam {
				case streaming.FDWeight:
					private += lanes
				case streaming.FD2DMag:
					private += 2 * lanes
					shared += lanes
				}
			}
		}
		if private != tc.private || shared > tc.atMost {
			t.Errorf("%s: %d decay factors per cell on private reducers (want %d), %d on the record (want <= %d)",
				plan.Policy.Name(), private, tc.private, shared, tc.atMost)
		}
	}
}

// TestFusedOpsCountEveryInput: five reduce ops of one damped statistic
// over IPT, one per rate, fuse into one op-table row feeding one
// five-lane state, and that row still counts each input once per op: a
// gap past the damped fixed-point input lane is five saturated inputs.
func TestFusedOpsCountEveryInput(t *testing.T) {
	b := policy.New("ipt-lanes").
		GroupBy(flowkey.GranFlow).
		Map("ipt", policy.SrcField(packet.FieldTimestamp), policy.MapIPT)
	for _, l := range []float64{5, 3, 1, 0.1, 0.01} {
		b.Reduce("ipt", policy.RFDamped(streaming.FDMean, l)).CollectPerPacket()
	}
	plan := compile(t, b)
	var vecs []feature.Vector
	rt, err := NewRuntime(DefaultConfig(), plan, feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	pr := rt.programs[0]
	var rows []instruction
	for _, ins := range pr.instrs {
		if ins.code == opReduce {
			rows = append(rows, ins)
		}
	}
	if len(rows) != 1 || rows[0].ops != 5 || len(pr.states) != 1 || len(pr.states[0].kern.Lanes()) != 5 {
		t.Fatalf("%d reduce rows (%+v), %d states: the five ops did not fuse", len(rows), rows, len(pr.states))
	}
	gaps := []int64{0, 1000, 40000, streaming.DampedFixedPointInputMax, streaming.DampedFixedPointInputMax + 1, 5e6, 20000, 1e9}
	pkts := flowPkts(len(gaps), 100, 0)
	over, ts := 0, int64(0)
	for i, gap := range gaps {
		ts += gap
		pkts[i].Timestamp = ts
		if gap > streaming.DampedFixedPointInputMax {
			over++
		}
	}
	rt.Process(mgpvFor(plan, pkts))
	if st := rt.Stats(); st.SatInputs != uint64(5*over) || st.RangeClamps != 0 {
		t.Errorf("%d saturated inputs and %d clamps, want %d and 0", st.SatInputs, st.RangeClamps, 5*over)
	}
	if len(vecs) != len(gaps) {
		t.Fatalf("%d vectors, want %d", len(vecs), len(gaps))
	}
	if n := len(vecs[0].Values); n != 5 {
		t.Errorf("%d values a vector, want 5", n)
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
		// host: mean(v), sum(v) | var+std(v'), sum+sum(v'), kurtosis(v') | max(w), skew(w) | min(v'')
		// flow: array+array(d), mag+pcc(d), the five 8-bin views (size), hist9(size)
		{naive: false, host: 8, flow: 4, hostV: 10, flowV: 10},
		{naive: true, host: 10, flow: 10, hostV: 10, flowV: 10},
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
	teeRun(t, apps.Kitsune(), trace.Generate(wl, 7), switchsim.DefaultConfig(), nil, func(v *gpv.MGPV) {
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

package nicsim

import (
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

// capture replays tr through a default switch for plan and returns the
// switch→NIC stream it emitted, every message deep-copied.
func capture(tb testing.TB, plan *policy.Plan, tr *trace.Trace) []gpv.Message {
	tb.Helper()
	var msgs []gpv.Message
	sw, err := switchsim.New(switchsim.DefaultConfig(), plan.Switch, func(m gpv.Message) {
		switch {
		case m.FG != nil:
			u := *m.FG
			msgs = append(msgs, gpv.Message{FG: &u})
		case m.MGPV != nil:
			v := *m.MGPV
			v.Cells = slices.Clone(v.Cells)
			for i := range v.Cells {
				v.Cells[i].Values = slices.Clone(v.Cells[i].Values)
			}
			msgs = append(msgs, gpv.Message{MGPV: &v})
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range tr.Packets {
		sw.Process(&tr.Packets[i])
	}
	sw.Flush()
	return msgs
}

// oneCellMGPVs is msgs with every MGPV cut into one MGPV per cell.
func oneCellMGPVs(msgs []gpv.Message) []gpv.Message {
	var out []gpv.Message
	for _, m := range msgs {
		if m.MGPV == nil {
			out = append(out, m)
			continue
		}
		for i := range m.MGPV.Cells {
			v := *m.MGPV
			v.Cells = v.Cells[i : i+1]
			out = append(out, gpv.Message{MGPV: &v})
		}
	}
	return out
}

type replayed struct {
	vecs       []feature.Vector
	stats      RuntimeStats
	stateBytes int
}

// replay runs msgs through a fresh Runtime (EMEM admissions failing
// from an injector of fp, nil: none) and flushes it.
func replay(tb testing.TB, plan *policy.Plan, msgs []gpv.Message, fp *faults.Plan, naive bool) replayed {
	tb.Helper()
	var out replayed
	cfg := DefaultConfig()
	cfg.Naive = naive
	if fp != nil {
		cfg.Faults = fp.NewInjector(0)
	}
	rt, err := NewRuntime(cfg, plan, func(v feature.Vector) {
		v.Values = slices.Clone(v.Values)
		out.vecs = append(out.vecs, v)
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range msgs {
		rt.Process(m)
	}
	rt.Flush()
	out.stats, out.stateBytes = rt.Stats(), rt.StateBytes()
	return out
}

// TestRunsEqualOneCellMGPVs replays each single-granularity catalog
// application's captured switch stream twice — as the switch cut it,
// and with every MGPV cut into one-cell MGPVs, one cell per run — and
// requires bit-identical vectors, counters and state bytes, also with
// EMEM admissions failing. It also pins which applications take runs.
// A damped single-granularity policy under Config.Naive runs too (its
// store-everything reducers keep no decay lane) and reads each cell's
// own time.
func TestRunsEqualOneCellMGPVs(t *testing.T) {
	wl := trace.CampusConfig
	wl.Flows = 150
	tr := trace.Generate(wl, 7)
	fp, err := faults.Parse("seed=5,rate=0.2,kinds=nic")
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name  string
		pol   *policy.Policy
		naive bool
	}
	var cases []tc
	for _, app := range apps.Catalog() {
		cases = append(cases, tc{app.Name, app.Build(), false})
	}
	damped := policy.New("damped").
		GroupBy(flowkey.GranFlow).
		Map("d", policy.SrcField(packet.FieldSize), policy.MapDirection).
		Reduce("d", policy.RFDamped(streaming.FDMean, 1), policy.RFDamped(streaming.FD2DPCC, 1)).
		Collect().
		MustBuild()
	cases = append(cases, tc{"damped/naive", damped, true})
	var runs []string
	for _, c := range cases {
		plan, err := policy.Compile(c.pol)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Naive = c.naive
		rt, err := NewRuntime(cfg, plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		if !rt.single {
			continue
		}
		if rt.programs[0].runs {
			runs = append(runs, c.name)
		}
		t.Run(c.name, func(t *testing.T) {
			msgs := capture(t, plan, tr)
			cut := oneCellMGPVs(msgs)
			if len(cut) == len(msgs) {
				t.Fatal("no MGPV has two cells: the fixture exercises nothing")
			}
			for _, fp := range []*faults.Plan{nil, fp} {
				whole, split := replay(t, plan, msgs, fp, c.naive), replay(t, plan, cut, fp, c.naive)
				if fp != nil && whole.stats.EMEMDrops == 0 {
					t.Fatal("no admission failed: the faulted fixture exercises nothing")
				}
				// The message counts differ by construction.
				split.stats.Msgs, split.stats.MGPVs = whole.stats.Msgs, whole.stats.MGPVs
				if whole.stats != split.stats {
					t.Errorf("faults %v: counters %+v, one cell per MGPV %+v", fp != nil, whole.stats, split.stats)
				}
				if whole.stateBytes != split.stateBytes {
					t.Errorf("faults %v: %d state bytes, one cell per MGPV %d", fp != nil, whole.stateBytes, split.stateBytes)
				}
				if len(whole.vecs) != len(split.vecs) || len(whole.vecs) == 0 {
					t.Fatalf("faults %v: %d vectors, one cell per MGPV %d", fp != nil, len(whole.vecs), len(split.vecs))
				}
				for i, w := range whole.vecs {
					s := split.vecs[i]
					if w.Key != s.Key || w.Timestamp != s.Timestamp || !slices.EqualFunc(w.Values, s.Values, func(a, b float64) bool {
						return math.Float64bits(a) == math.Float64bits(b)
					}) {
						t.Fatalf("faults %v: vector %d is %v, one cell per MGPV %v", fp != nil, i, w, s)
					}
				}
			}
		})
	}
	want := []string{"CUMUL", "AWF", "DF", "TF", "PeerShark", "MPTD", "NPOD", "damped/naive"}
	if !slices.Equal(runs, want) {
		t.Errorf("applications taking runs: %v, want %v", runs, want)
	}
}

// BenchmarkProcess prices the NIC alone per cell: a captured switch
// stream replayed into a Runtime that has already admitted its groups,
// so an iteration is the steady update. NPOD (hist, sum and IPT on one
// record) and TF (the direction sequence, an out-of-line f_array) run
// at a time over MAWI flows; Kitsune, over CAMPUS flows, is the
// four-granularity chain of fused damped lanes and a 115-value
// read-out every cell.
func BenchmarkProcess(b *testing.B) {
	for _, bc := range []struct {
		build func() *policy.Policy
		wl    trace.WorkloadConfig
	}{
		{apps.NPOD, trace.MAWIConfig},
		{apps.TF, trace.MAWIConfig},
		{apps.Kitsune, trace.CampusConfig},
	} {
		plan, err := policy.Compile(bc.build())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(plan.Policy.Name(), func(b *testing.B) {
			wl := bc.wl
			wl.Flows = 300
			msgs := capture(b, plan, trace.Generate(wl, 42))
			cells := 0
			for _, m := range msgs {
				if m.MGPV != nil {
					cells += len(m.MGPV.Cells)
				}
			}
			rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range msgs {
				rt.Process(m) // admits every group
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					rt.Process(m)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

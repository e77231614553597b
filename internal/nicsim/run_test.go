package nicsim

import (
	"cmp"
	"fmt"
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
	msgs, _ := captureWith(tb, switchsim.DefaultConfig(), plan, tr)
	return msgs
}

// captureWith is capture through a switch of scfg; it also returns the
// switch's counters.
func captureWith(tb testing.TB, scfg switchsim.Config, plan *policy.Plan, tr *trace.Trace) ([]gpv.Message, switchsim.Stats) {
	tb.Helper()
	var msgs []gpv.Message
	sw, err := switchsim.New(scfg, plan.Switch, func(m gpv.Message) {
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
	return msgs, sw.Stats()
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
// from an injector of fp, nil: none), calling each (if any) after every
// message, and flushes it.
func replay(tb testing.TB, plan *policy.Plan, msgs []gpv.Message, fp *faults.Plan, naive bool, each func(*Runtime)) replayed {
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
		if each != nil {
			each(rt)
		}
	}
	rt.Flush()
	out.stats, out.stateBytes = rt.Stats(), rt.StateBytes()
	return out
}

// requireSameReplay fails the test unless a replay of one stream cut
// into other MGPVs (split) matches its replay as cut (whole): counters,
// state bytes and the vector sequence, bit for bit.
func requireSameReplay(t *testing.T, what string, whole, split replayed) {
	t.Helper()
	// The message counts differ by construction.
	split.stats.Msgs, split.stats.MGPVs = whole.stats.Msgs, whole.stats.MGPVs
	if whole.stats != split.stats {
		t.Errorf("%s: counters %+v, reference %+v", what, whole.stats, split.stats)
	}
	if whole.stateBytes != split.stateBytes {
		t.Errorf("%s: %d state bytes, reference %d", what, whole.stateBytes, split.stateBytes)
	}
	if len(whole.vecs) != len(split.vecs) || len(whole.vecs) == 0 {
		t.Fatalf("%s: %d vectors, reference %d", what, len(whole.vecs), len(split.vecs))
	}
	for i, w := range whole.vecs {
		s := split.vecs[i]
		if w.Key != s.Key || w.Timestamp != s.Timestamp || !slices.EqualFunc(w.Values, s.Values, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("%s: vector %d is %v, reference %v", what, i, w, s)
		}
	}
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
				whole, split := replay(t, plan, msgs, fp, c.naive, nil), replay(t, plan, cut, fp, c.naive, nil)
				if fp != nil && whole.stats.EMEMDrops == 0 {
					t.Fatal("no admission failed: the faulted fixture exercises nothing")
				}
				requireSameReplay(t, fmt.Sprintf("faults %v, one cell per MGPV as reference", fp != nil), whole, split)
			}
		})
	}
	want := []string{"CUMUL", "AWF", "DF", "TF", "PeerShark", "MPTD", "NPOD", "damped/naive"}
	if !slices.Equal(runs, want) {
		t.Errorf("applications taking runs: %v, want %v", runs, want)
	}
}

// TestFGGroupRefsMatchRederivation replays the switch streams of the
// three multi-granularity catalog chains twice: as the switch cut them,
// where a cell finds its groups through its FG index's refs, and as
// one-cell MGPVs with every ref cleared after each message, where each
// cell projects its FG key afresh. A switch FG table of 256 entries
// makes index overwrites (syncFG clearing refs) frequent; a
// self-addressed flow (SrcIP == DstIP, whose KeyFor direction does not
// flip with the packet's) runs in both orientations. Vectors, counters
// and state bytes must be identical, also with EMEM admissions failing.
func TestFGGroupRefsMatchRederivation(t *testing.T) {
	wl := trace.CampusConfig
	wl.Flows = 150
	tr := trace.Generate(wl, 11)
	self := flowkey.FiveTuple{SrcIP: flowkey.IPv4(10, 9, 9, 9), DstIP: flowkey.IPv4(10, 9, 9, 9), SrcPort: 4000, DstPort: 80, Proto: flowkey.ProtoTCP}
	end := tr.Packets[len(tr.Packets)-1].Timestamp
	for i := int64(0); i < 60; i++ {
		tup := self
		if i%3 == 2 {
			tup = self.Reverse()
		}
		tr.Packets = append(tr.Packets, packet.Packet{Tuple: tup, Timestamp: end * i / 60, Size: uint32(60 + 20*i)})
	}
	slices.SortStableFunc(tr.Packets, func(a, b packet.Packet) int { return cmp.Compare(a.Timestamp, b.Timestamp) })
	scfg := switchsim.DefaultConfig()
	scfg.FGTableSize = 256
	fp, err := faults.Parse("seed=5,rate=0.2,kinds=nic")
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() *policy.Policy{apps.Kitsune, apps.HELAD, apps.NBaIoT} {
		plan, err := policy.Compile(build())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(plan.Policy.Name(), func(t *testing.T) {
			msgs, st := captureWith(t, scfg, plan, tr)
			if st.FGOverwrites == 0 {
				t.Fatal("no FG index was overwritten: the fixture exercises nothing")
			}
			cut := oneCellMGPVs(msgs)
			for _, fp := range []*faults.Plan{nil, fp} {
				refs := replay(t, plan, msgs, fp, false, nil)
				fresh := replay(t, plan, cut, fp, false, func(rt *Runtime) { clear(rt.fgRefs) })
				if fp != nil && refs.stats.EMEMDrops == 0 {
					t.Fatal("no admission failed: the faulted fixture exercises nothing")
				}
				requireSameReplay(t, fmt.Sprintf("faults %v, re-derivation as reference", fp != nil), refs, fresh)
				orient := map[bool]bool{}
				for _, v := range refs.vecs {
					if k := v.Key.Tuple; k.SrcIP == self.SrcIP && k.DstIP == self.DstIP {
						orient[k.SrcPort == self.SrcPort] = true
					}
				}
				if plan.Policy.PerPacket() && len(orient) != 2 {
					t.Errorf("faults %v: the self-addressed flow emitted in orientations %v, want both", fp != nil, orient)
				}
			}
		})
	}
}

// BenchmarkProcess prices the NIC alone per cell over a captured switch
// stream: each iteration deploys a fresh Runtime, replays the stream's
// first half untimed and times the second, whose cells stand ahead of
// their groups' clocks as they do in a live run, so damped lanes decay
// (a warm runtime replaying the same stream would decay nothing) and
// groups that start late are admitted. NPOD (hist, sum and IPT on one
// record) and TF (the direction sequence, an f_array log: one record
// word, the samples in the program's Logs) run at a time over MAWI
// flows; Kitsune, over CAMPUS flows, is the four-granularity chain of
// fused damped lanes and a 115-value read-out every cell, each state
// read out as it observes the cell (streaming.Kernel.ObserveRead):
// ~850–1050 ns/cell on a 2-CPU Xeon, ~950–1200 when every state was
// read after the op table.
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
			// The timed half: the messages after the one that takes the
			// cell count past half.
			total, warmCells, split := 0, 0, 0
			for _, m := range msgs {
				if m.MGPV != nil {
					total += len(m.MGPV.Cells)
				}
			}
			for ; 2*warmCells < total; split++ {
				if m := msgs[split]; m.MGPV != nil {
					warmCells += len(m.MGPV.Cells)
				}
			}
			warm, timed := msgs[:split], msgs[split:]
			cells := total - warmCells
			deploy := func() *Runtime {
				rt, err := NewRuntime(DefaultConfig(), plan, func(feature.Vector) {})
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range warm {
					rt.Process(m)
				}
				return rt
			}
			// The timed half must move the clocks of most of the groups it
			// feeds that the first half admitted (a plan that batches no
			// timestamp keeps no clock). A group's clock is its unwrapped
			// clock where the program keeps one, else its last timestamp;
			// a program that keeps neither is not counted.
			rt := deploy()
			timeWord := func(pr *program) int { return cmp.Or(pr.clock, pr.lastTS) }
			type mark struct{ time, cells uint64 }
			var at [][]mark
			for _, pr := range rt.programs {
				ms := make([]mark, pr.table.n)
				for i := range ms {
					g := pr.table.at(i)
					ms[i] = mark{g[timeWord(pr)], g[recCells]}
				}
				at = append(at, ms)
			}
			for _, m := range timed {
				rt.Process(m)
			}
			fed, moved := 0, 0
			for pi, pr := range rt.programs {
				if timeWord(pr) == 0 {
					continue
				}
				for i, was := range at[pi] {
					if g := pr.table.at(i); g[recCells] > was.cells {
						fed++
						if g[timeWord(pr)] != was.time {
							moved++
						}
					}
				}
			}
			if rt.tsPos >= 0 && 2*moved <= fed {
				b.Fatalf("the timed half moves the clocks of %d of the %d earlier groups it feeds", moved, fed)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rt := deploy()
				b.StartTimer()
				for _, m := range timed {
					rt.Process(m)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

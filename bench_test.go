// Package superfe_bench holds the benchmark harness regenerating the
// paper's evaluation: one benchmark per table/figure (reporting the
// paper's metric via b.ReportMetric) plus ablation benches for the
// design decisions called out in DESIGN.md §5. Run with
//
//	go test -bench=. -benchmem
//
// The companion cmd/experiments binary prints the same results as
// formatted tables.
package superfe_bench

import (
	"fmt"
	"sync"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/baseline"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/gpv"
	"superfe/internal/harness"
	"superfe/internal/ilp"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/streaming"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

// enterprise returns a cached mid-size ENTERPRISE trace.
func enterprise() *trace.Trace {
	entOnce.Do(func() {
		cfg := trace.EnterpriseConfig
		cfg.Flows = 5000
		entTrace = trace.Generate(cfg, harness.Seed)
	})
	return entTrace
}

var (
	entOnce  sync.Once
	entTrace *trace.Trace
)

func compileApp(b *testing.B, name string) *policy.Plan {
	b.Helper()
	for _, e := range apps.Catalog() {
		if e.Name == name {
			plan, err := policy.Compile(e.Build())
			if err != nil {
				b.Fatal(err)
			}
			return plan
		}
	}
	b.Fatalf("unknown app %s", name)
	return nil
}

// --- Table 2: workload generation -------------------------------------------

func BenchmarkTable2Traces(b *testing.B) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := trace.Generate(cfg, int64(i))
		st := tr.Stats()
		b.ReportMetric(st.AvgFlowLength, "pkts/flow")
		b.ReportMetric(st.AvgPacketSize, "B/pkt")
	}
}

// --- Table 3: policy compilation --------------------------------------------

func BenchmarkTable3PolicyCompile(b *testing.B) {
	for _, e := range apps.Catalog() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol := e.Build()
				if _, err := policy.Compile(pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 4: resource estimation -------------------------------------------

func BenchmarkTable4Resources(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	swCfg := switchsim.DefaultConfig()
	nicCfg := nicsim.DefaultConfig()
	for i := 0; i < b.N; i++ {
		res := switchsim.EstimateResources(swCfg, plan.Switch)
		pl, err := nicsim.Place(nicCfg, plan.NIC.StateSpecs)
		if err != nil {
			b.Fatal(err)
		}
		mem := nicsim.EstimateMemory(nicCfg, plan.NIC.StateSpecs, pl, swCfg.NumShort)
		b.ReportMetric(res.SALUs*100, "sALU%")
		b.ReportMetric(mem.Overall*100, "NICmem%")
	}
}

// --- Figure 9: end-to-end pipeline vs software baseline ---------------------

func BenchmarkFig9PipelinePerPacket(b *testing.B) {
	for _, name := range []string{"TF", "NPOD", "Kitsune"} {
		b.Run(name, func(b *testing.B) {
			plan := compileApp(b, name)
			tr := enterprise()
			fe, err := core.New(core.DefaultOptions(), plan.Policy, func(feature.Vector) {})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Process(&tr.Packets[i%len(tr.Packets)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

func BenchmarkFig9SoftwareBaselinePerPacket(b *testing.B) {
	for _, name := range []string{"TF", "NPOD", "Kitsune"} {
		b.Run(name, func(b *testing.B) {
			plan := compileApp(b, name)
			tr := enterprise()
			ext, err := baseline.New(plan.Policy, func(feature.Vector) {})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ext.Process(&tr.Packets[i%len(tr.Packets)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

// --- Parallel engine: sharded scaling curve ----------------------------------

// BenchmarkParallelPipeline measures end-to-end pkts/sec of the
// sharded engine across worker counts — the host-core analogue of
// Figure 16's NIC-core scaling. A full warmup pass populates every
// group so the measured window is the steady-state hot path, which
// must stay allocation-free (checked by -benchmem: 0 allocs/op) both
// bare and with the telemetry subsystem enabled — the instrumented
// hot path is fixed handles and atomic adds, and the interval
// snapshot's allocations amortize over SnapshotInterval packets.
func BenchmarkParallelPipeline(b *testing.B) {
	plan := compileApp(b, "NPOD")
	tr := enterprise()
	for _, bc := range []struct {
		name         string
		instrumented bool
	}{{"bare", false}, {"obs", true}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				opts := core.DefaultParallelOptions()
				opts.Workers = workers
				if bc.instrumented {
					opts.Obs = obs.DefaultOptions()
					opts.Obs.Enabled = true
				}
				pe, err := core.NewParallel(opts, plan.Policy, func(feature.Vector) {})
				if err != nil {
					b.Fatal(err)
				}
				defer pe.Close()
				// Warmup: admit every group and size every buffer.
				for i := range tr.Packets {
					pe.Process(&tr.Packets[i])
				}
				pe.Drain()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pe.Process(&tr.Packets[i%len(tr.Packets)])
				}
				pe.Drain()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
			})
		}
	}
}

// BenchmarkSequentialPipeline is the parity baseline for the
// workers=1 comparison, on the same policy and trace.
func BenchmarkSequentialPipeline(b *testing.B) {
	plan := compileApp(b, "NPOD")
	tr := enterprise()
	fe, err := core.New(core.DefaultOptions(), plan.Policy, func(feature.Vector) {})
	if err != nil {
		b.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.Process(&tr.Packets[i%len(tr.Packets)])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkFig9ModeledThroughput(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	cfg := nicsim.TwoNICConfig()
	pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
	if err != nil {
		b.Fatal(err)
	}
	cm := nicsim.NewCostModel(cfg, plan.NIC, pl)
	for i := 0; i < b.N; i++ {
		g := cm.ThroughputGbps(cfg.Cores(), 739)
		b.ReportMetric(g, "Gbps")
	}
}

// --- Figure 10: feature fidelity --------------------------------------------

func BenchmarkFig10StreamingReducers(b *testing.B) {
	for _, f := range []streaming.Func{streaming.FMean, streaming.FVar, streaming.FCard, streaming.FDMean} {
		b.Run(f.String(), func(b *testing.B) {
			r, err := streaming.New(f, streaming.Params{Lambda: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.ObserveAt(int64(i%1500), int64(i)*1000)
			}
			_ = streaming.Features(r, streaming.View{Func: f})
		})
	}
}

// --- Figure 11: detection ----------------------------------------------------

func BenchmarkFig11KitsunePipeline(b *testing.B) {
	cfg := trace.DefaultIntrusionConfig(trace.AttackMirai)
	cfg.BenignFlows = 60
	cfg.AttackPkts = 1000
	tr := trace.GenerateIntrusion(cfg, harness.Seed)
	plan := compileApp(b, "Kitsune")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe, err := core.New(core.DefaultOptions(), plan.Policy, func(feature.Vector) {})
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Packets {
			fe.Process(&tr.Packets[j])
		}
		fe.Flush()
	}
}

// --- Figure 12: MGPV aggregation ---------------------------------------------

func BenchmarkFig12Aggregation(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	tr := enterprise()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := switchsim.New(switchsim.DefaultConfig(), plan.Switch, func(gpv.Message) {})
		if err != nil {
			b.Fatal(err)
		}
		for j := range tr.Packets {
			sw.Process(&tr.Packets[j])
		}
		sw.Flush()
		b.ReportMetric(sw.Stats().AggregationRatio(), "aggRatio")
	}
}

// --- Figure 13: MGPV vs GPV ablation -----------------------------------------

func BenchmarkFig13AblationGPV(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	tr := enterprise()
	b.Run("MGPV", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw, _ := switchsim.New(switchsim.DefaultConfig(), plan.Switch, func(gpv.Message) {})
			for j := range tr.Packets {
				sw.Process(&tr.Packets[j])
			}
			sw.Flush()
			b.ReportMetric(float64(sw.Stats().BytesOut), "bytesOut")
		}
	})
	b.Run("GPV", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bank, _ := switchsim.NewGPVBank(switchsim.DefaultConfig(), plan.Switch, func(gpv.Message) {})
			for j := range tr.Packets {
				bank.Process(&tr.Packets[j])
			}
			bank.Flush()
			b.ReportMetric(float64(bank.Stats().BytesOut), "bytesOut")
		}
	})
}

// --- Figure 14: aging ablation -------------------------------------------------

func BenchmarkFig14Aging(b *testing.B) {
	plan := compileApp(b, "TF")
	tr := enterprise()
	for _, T := range []int64{0, 20_000_000} {
		name := "off"
		if T > 0 {
			name = "T=20ms"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := switchsim.DefaultConfig()
				cfg.AgingT = T
				sw, _ := switchsim.New(cfg, plan.Switch, func(gpv.Message) {})
				for j := range tr.Packets {
					sw.Process(&tr.Packets[j])
				}
				sw.Flush()
				b.ReportMetric(sw.Stats().AggregationRatio(), "aggRatio")
			}
		})
	}
}

// --- Figure 15: streaming vs naive -------------------------------------------

func BenchmarkFig15StreamingVsNaive(b *testing.B) {
	plan := compileApp(b, "NPOD")
	tr := enterprise()
	for _, naive := range []bool{false, true} {
		name := "streaming"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.NIC.Naive = naive
			fe, err := core.New(opts, plan.Policy, func(feature.Vector) {})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Process(&tr.Packets[i%len(tr.Packets)])
			}
			b.ReportMetric(float64(fe.NICStateBytes()), "stateBytes")
		})
	}
}

// --- Figure 16: core scaling ---------------------------------------------------

func BenchmarkFig16Scaling(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	cfg := nicsim.TwoNICConfig()
	pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
	if err != nil {
		b.Fatal(err)
	}
	cm := nicsim.NewCostModel(cfg, plan.NIC, pl)
	for i := 0; i < b.N; i++ {
		r1 := cm.CellsPerSecond(1)
		r120 := cm.CellsPerSecond(120)
		b.ReportMetric(r120/r1, "scaling")
	}
}

// BenchmarkFig16FunctionalCluster measures the real parallel speedup
// of the sharded NIC runtime (not just the model).
func BenchmarkFig16FunctionalCluster(b *testing.B) {
	plan := compileApp(b, "NPOD")
	tr := enterprise()
	// Pre-batch the trace into messages once.
	var msgs []gpv.Message
	sw, _ := switchsim.New(switchsim.DefaultConfig(), plan.Switch, func(m gpv.Message) {
		msgs = append(msgs, m)
	})
	for j := range tr.Packets {
		sw.Process(&tr.Packets[j])
	}
	sw.Flush()
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "1shard", 4: "4shards"}[shards], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cl, err := nicsim.NewCluster(nicsim.DefaultConfig(), plan, shards, func(feature.Vector) {})
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range msgs {
					cl.Process(m)
				}
				cl.Close()
			}
		})
	}
}

// --- Figure 17: optimization ablation ------------------------------------------

func BenchmarkFig17Optimizations(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	steps := map[string]nicsim.Optimizations{
		"none": {},
		"all":  nicsim.AllOptimizations(),
	}
	for name, opt := range steps {
		b.Run(name, func(b *testing.B) {
			cfg := nicsim.DefaultConfig()
			cfg.Opt = opt
			pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
			if err != nil {
				b.Fatal(err)
			}
			cm := nicsim.NewCostModel(cfg, plan.NIC, pl)
			for i := 0; i < b.N; i++ {
				b.ReportMetric(cm.CyclesPerCell(), "cycles/cell")
			}
		})
	}
}

// --- Ablation: ILP placement vs greedy vs all-EMEM -----------------------------

func BenchmarkAblationPlacement(b *testing.B) {
	plan := compileApp(b, "Kitsune")
	cfg := nicsim.DefaultConfig()
	b.Run("ILP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pl.CostPerPkt, "latencyCyc")
		}
	})
	b.Run("AllEMEM", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pl := nicsim.PlaceAllEMEM(cfg, plan.NIC.StateSpecs)
			b.ReportMetric(pl.CostPerPkt, "latencyCyc")
		}
	})
}

// --- Ablation: wire codec ------------------------------------------------------

func BenchmarkGPVCodec(b *testing.B) {
	v := &gpv.MGPV{Cells: make([]gpv.Cell, 24)}
	for i := range v.Cells {
		v.Cells[i] = gpv.Cell{Values: []uint32{100, 200}, FGIndex: uint16(i), Forward: i%2 == 0}
	}
	m := gpv.Message{MGPV: v}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.Marshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := gpv.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: ILP solver scalability -------------------------------------------

func BenchmarkILPSolve(b *testing.B) {
	prob := ilp.Problem{
		Cost: make([][]float64, 12),
		Size: make([]int, 12),
		Cap:  []int{12, 12, 64, 1 << 20},
	}
	for i := range prob.Cost {
		prob.Cost[i] = []float64{float64(2 + i), float64(4 + i), float64(8 + i), float64(16 + i)}
		prob.Size[i] = 4 + i%9
	}
	for i := 0; i < b.N; i++ {
		if _, err := ilp.Solve(prob); err != nil {
			b.Fatal(err)
		}
	}
}

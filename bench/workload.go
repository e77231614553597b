package main

import (
	"fmt"
	"runtime"
	"time"

	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/serve"
	"superfe/internal/trace"
)

// workload is one named input of the benchmark: a Table-3 policy, a
// Table-2 traffic mix and the front door the packets enter through.
// The names are permanent; BENCHMARK.json repeats them with the reason
// each was chosen, and README.md says which layer does most of the
// work on each.
type workload struct {
	Name   string
	Policy string // apps.Catalog name
	Trace  trace.WorkloadConfig
	Serve  bool // through serve.Server on TCP loopback instead of in-process
}

func mawiLong() trace.WorkloadConfig {
	// MAWI's flow lengths are lognormal with sigma 1.6, so the mean of
	// 3000 of them (trace.MAWIConfig) moves ~8% from seed to seed and
	// every per-packet metric with it. Four times the flows over four
	// times the span keeps the concurrency, and so the cache regime,
	// and halves that spread.
	c := trace.MAWIConfig
	c.Flows *= 4
	c.SpanNS *= 4
	return c
}

func campus2000() trace.WorkloadConfig {
	// 2000 of CAMPUS's 5500 flows: the same cache regime (no collision
	// evictions, full-buffer evictions, FG-table overwrites) at a pass
	// short enough that a run still yields ten of them.
	c := trace.CampusConfig
	c.Flows = 2000
	return c
}

var workloads = []workload{
	{Name: "npod-mawi", Policy: "NPOD", Trace: mawiLong()},
	{Name: "npod-enterprise", Policy: "NPOD", Trace: trace.EnterpriseConfig},
	{Name: "kitsune-campus", Policy: "Kitsune", Trace: campus2000()},
	{Name: "serve-npod-enterprise", Policy: "NPOD", Trace: trace.EnterpriseConfig, Serve: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets the workload up at least setupRepeats times and for at
// least setupMinTime, so that setup_s is a median over enough samples
// even where one set-up is a quarter of a second.
const (
	setupRepeats = 5
	setupMinTime = 2 * time.Second
)

// runner holds one workload's input, reference and samples for the
// length of a run.
type runner struct {
	w     workload
	pol   *policy.Policy
	plan  *policy.Plan
	pkts  []packet.Packet
	stats trace.Stats
	ref   reference
	svc   *service
	mem   *memref

	genS      float64
	compileMS float64
	setupS    []float64
	heapMB    float64
	good      []passResult
	attempted uint64
	failed    uint64
}

// newRunner generates the workload's trace from the seed and builds
// the reference every later pass is checked against. The system under
// test only ever sees the generated packets.
func newRunner(w workload, seed int64, flowScale float64) (*runner, error) {
	r := &runner{w: w}
	cfg := w.Trace
	cfg.Flows = max(int(float64(cfg.Flows)*flowScale), 20)
	t0 := time.Now()
	tr := trace.Generate(cfg, seed)
	r.genS = time.Since(t0).Seconds()
	r.pkts, r.stats = tr.Packets, tr.Stats()

	pol, err := serve.ResolveCatalog(w.Policy)
	if err != nil {
		return nil, err
	}
	r.pol = pol
	t0 = time.Now()
	if r.plan, err = policy.Compile(pol); err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.Policy, err)
	}
	r.compileMS = float64(time.Since(t0)) / 1e6
	if r.ref, err = buildReference(pol, r.pkts); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.Name, err)
	}
	if r.mem, err = newMemref(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *runner) close() error {
	err := r.mem.close()
	if r.svc != nil {
		if serr := r.svc.stop(); err == nil {
			err = serr
		}
	}
	return err
}

func (r *runner) service() (*service, error) {
	if r.svc == nil {
		svc, err := startService()
		if err != nil {
			return nil, err
		}
		r.svc = svc
	}
	return r.svc, nil
}

// frontDoor runs one cold pass through the workload's front door.
// resident, when set, is called once all state is resident, just
// before the Flush.
func (r *runner) frontDoor(sink *tally, resident func()) (passResult, error) {
	if !r.w.Serve {
		return parallelPass(engineOptions(1, false), r.pol, r.pkts, sink, resident)
	}
	svc, err := r.service()
	if err != nil {
		return passResult{}, err
	}
	var hook func(*serve.Tenant)
	if resident != nil {
		hook = func(t *serve.Tenant) {
			// The tenant counts a packet once its engine has routed
			// it; the last few batches may still be on the ring.
			for deadline := time.Now().Add(subscriberWait); t.Info().Pkts < uint64(len(r.pkts)) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			resident()
		}
	}
	return svc.pass(r.w.Policy, r.pkts, r.ref.Vectors, sink, hook)
}

// verifyAndSetup sets the workload up at least repeats times and for at
// least minTime: compile, deploy and one untimed pass whose vector
// digest at the front door must equal the sequential engine's. Nothing
// is timed before this has passed.
func (r *runner) verifyAndSetup(repeats int, minTime time.Duration) error {
	for start := time.Now(); len(r.setupS) < repeats || time.Since(start) < minTime; {
		sink := tally{digest: true}
		t0 := time.Now()
		if _, err := r.frontDoor(&sink, nil); err != nil {
			return err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if got := sink.String(); got != r.ref.Digest {
			return fmt.Errorf("%s: front-door vector digest %s differs from sequential engine %s", r.w.Name, got, r.ref.Digest)
		}
	}
	return nil
}

// measureHeap runs one extra untimed pass and reads the live heap,
// after a forced collection, with all state resident, as the growth
// over the heap before the deployment (so the benchmark's own trace
// and reference are not counted).
func (r *runner) measureHeap() error {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	var sink tally
	_, err := r.frontDoor(&sink, func() {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.heapMB = (float64(ms.HeapAlloc) - float64(before)) / (1 << 20)
	})
	return err
}

// slice repeats timed cold passes for d, each bracketed by two
// readings of the reference memory kernel. Every pass is checked
// against the reference counts; a pass that fails them adds to failed
// and contributes no timing.
func (r *runner) slice(d time.Duration) error {
	passes := 0
	before := r.mem.nsPerOp()
	for end := time.Now().Add(d); passes == 0 || time.Now().Before(end); passes++ {
		var sink tally
		res, err := r.frontDoor(&sink, nil)
		if err != nil {
			return err
		}
		after := r.mem.nsPerOp()
		res.memrefNS, before = (before+after)/2, after
		r.attempted += uint64(len(r.pkts)) + r.ref.Vectors
		bad := res.frameErrs
		if res.vectors < r.ref.Vectors {
			bad += r.ref.Vectors - res.vectors
		}
		if res.vectors != r.ref.Vectors || res.dims != r.ref.Dims {
			bad++
		}
		if bad > 0 {
			r.failed += bad
			continue
		}
		r.good = append(r.good, res)
	}
	return nil
}

// metric is one named number with its unit; Summary is set for
// medians over passes.
type metric struct {
	Name    string   `json:"name"`
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Summary *summary `json:"summary,omitempty"`
}

// overPasses is the median of f over the passes, as a metric.
func overPasses(name, unit string, passes []passResult, f func(passResult) float64) metric {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = f(p)
	}
	s := summarize(xs)
	return metric{Name: name, Value: s.Median, Unit: unit, Summary: &s}
}

// endToEnd returns the bounded metrics, in BENCHMARK.json's order, and
// beside them the raw timings they were derived from. All are medians
// over the untraced passes. The bounded timings are in units of the
// reference memory kernel read beside each pass (see memref); the raw
// ones are host nanoseconds and move with the machine.
func (r *runner) endToEnd() (bounded, raw []metric) {
	n := float64(len(r.pkts))
	setup := summarize(r.setupS)
	bounded = []metric{
		overPasses("pkt_wall_memrefs", "memref", r.good, func(p passResult) float64 { return float64(p.wall) / n / p.memrefNS }),
		overPasses("pkt_cpu_memrefs", "memref", r.good, func(p passResult) float64 { return float64(p.cpu) / n / p.memrefNS }),
		// Not per packet: the drain's work follows the groups resident
		// at the end of the trace, not the trace's length.
		overPasses("drain_kmemrefs", "kmemref", r.good, func(p passResult) float64 { return float64(p.drain) / p.memrefNS / 1e3 }),
		overPasses("allocs_per_pkt", "1/pkt", r.good, func(p passResult) float64 { return float64(p.mallocs) / n }),
		{Name: "heap_live_mb", Value: r.heapMB, Unit: "MiB"},
		{Name: "setup_s", Value: setup.Median, Unit: "s", Summary: &setup},
	}
	raw = []metric{
		overPasses("ns_per_pkt", "ns", r.good, func(p passResult) float64 { return float64(p.wall) / n }),
		overPasses("cpu_ns_per_pkt", "ns", r.good, func(p passResult) float64 { return float64(p.cpu) / n }),
		overPasses("drain_ms", "ms", r.good, func(p passResult) float64 { return float64(p.drain) / 1e6 }),
		overPasses("memref_ns_per_op", "ns", r.good, func(p passResult) float64 { return p.memrefNS }),
	}
	return bounded, raw
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"superfe/internal/baseline"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/gpv"
	"superfe/internal/nicsim"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/serve"
	"superfe/internal/streaming"
	"superfe/internal/switchsim"
)

// batchRows is the router's batch size (core.DefaultParallelOptions);
// the traced run records one span per stage per batch of this size.
const batchRows = 256

// maxKeptVectors bounds the vectors the capture pass copies for the
// vector-encode rung (Kitsune emits 115 dims per packet).
const maxKeptVectors = 4096

// residualTolerance is how far the sum of the isolated rungs may sit
// from the sequential engine before the traced run fails: the
// attribution is only worth reading while the rungs add up.
const residualTolerance = 0.25

// Stage names of the traced pass; each is the layer (package) whose
// exported functions the span brackets.
const (
	spanPass      = "pass"
	spanKeyHash   = "flowkey"
	spanPredicate = "policy"
	spanAppend    = "switchsim.columns"
	spanSwitch    = "switchsim"
	spanSwFlush   = "switchsim.flush"
	spanNIC       = "nicsim"
	spanNICFlush  = "nicsim.flush"
)

var stageSpans = []string{spanKeyHash, spanPredicate, spanAppend, spanSwitch, spanSwFlush, spanNIC, spanNICFlush}

// router reproduces ParallelEngine.Process's three steps as separate
// loops over a batch — grouping key and hash, filter verdict, column
// fill — so each can be timed on its own.
type router struct {
	plan    *policy.Plan
	keys    []flowkey.Key
	hashes  []uint32
	verdict []bool
	cols    *switchsim.Columns
	passed  int
}

func newRouter(plan *policy.Plan) *router {
	return &router{
		plan:    plan,
		keys:    make([]flowkey.Key, batchRows),
		hashes:  make([]uint32, batchRows),
		verdict: make([]bool, batchRows),
		cols:    switchsim.NewColumns(batchRows, len(plan.Switch.MetadataFields)),
	}
}

func (rt *router) fill(tr *tracer, parent, pass int, b []packet.Packet) {
	id := tr.begin(spanKeyHash, parent, pass)
	for i := range b {
		rt.keys[i], _ = flowkey.KeyFor(rt.plan.Switch.CG, b[i].Tuple)
		rt.hashes[i] = flowkey.HashKey(rt.keys[i])
	}
	tr.end(id, len(b))

	id = tr.begin(spanPredicate, parent, pass)
	for i := range b {
		rt.verdict[i] = rt.plan.Switch.Pred.Eval(&b[i])
	}
	tr.end(id, len(b))
	for i := range b {
		if rt.verdict[i] {
			rt.passed++
		}
	}

	id = tr.begin(spanAppend, parent, pass)
	rt.cols.Reset()
	for i := range b {
		rt.cols.Append(&b[i], rt.keys[i], rt.hashes[i], rt.verdict[i], rt.plan.Switch.MetadataFields)
	}
	tr.end(id, len(b))
}

// capture is the switch→NIC stream of one pass, deep-copied (the
// ZeroCopy switch reuses its buffers) and cut at the batch boundaries,
// so the NIC rung can be replayed batch by batch beside the switch
// rung without the switch calling into it.
type capture struct {
	msgs     []gpv.Message
	batchEnd []int
	vectors  []feature.Vector
}

func cloneMessage(m gpv.Message) gpv.Message {
	if m.FG != nil {
		fg := *m.FG
		return gpv.Message{FG: &fg}
	}
	v := *m.MGPV
	v.Cells = make([]gpv.Cell, len(m.MGPV.Cells))
	for i, c := range m.MGPV.Cells {
		c.Values = append([]uint32(nil), c.Values...)
		v.Cells[i] = c
	}
	return gpv.Message{MGPV: &v}
}

// ladder is the traced run of one workload: the same input replayed
// stage by stage through each layer's exported functions, then through
// the engines whole.
type ladder struct {
	r   *runner
	tr  *tracer
	cap capture
	// counts read at the stage boundaries (they repeat exactly from
	// pass to pass)
	sw         switchsim.Stats
	nic        nicsim.RuntimeStats
	groupsLive int
	stateBytes int
	passRatio  float64
}

// stagedPass runs one pass of the staged pipeline. Capturing, the
// switch feeds the NIC directly (as the engine does) while the stream
// is recorded; replaying, the switch drains into a counting null sink
// and the NIC is fed the recorded stream, batch by batch.
func (l *ladder) stagedPass(tr *tracer, pass int, capturing bool) error {
	r := l.r
	opts := core.DefaultOptions()
	opts.Switch.ZeroCopy = true
	sink := tally{digest: capturing}
	vecSink := sink.add
	if capturing {
		vecSink = func(v feature.Vector) {
			sink.add(v)
			if len(l.cap.vectors) < maxKeptVectors {
				v.Values = append([]float64(nil), v.Values...)
				l.cap.vectors = append(l.cap.vectors, v)
			}
		}
	}
	nic, err := nicsim.NewRuntime(opts.NIC, r.plan, vecSink)
	if err != nil {
		return err
	}
	msgs := 0
	swSink := func(gpv.Message) { msgs++ }
	if capturing {
		swSink = func(m gpv.Message) {
			l.cap.msgs = append(l.cap.msgs, cloneMessage(m))
			nic.Process(m)
		}
	}
	sw, err := switchsim.New(opts.Switch, r.plan.Switch, swSink)
	if err != nil {
		return err
	}
	rt := newRouter(r.plan)

	replay := func(root, batch int) {
		lo := 0
		if batch > 0 {
			lo = l.cap.batchEnd[batch-1]
		}
		hi := l.cap.batchEnd[batch]
		id := tr.begin(spanNIC, root, pass)
		for i := lo; i < hi; i++ {
			nic.Process(l.cap.msgs[i])
		}
		tr.end(id, hi-lo)
	}

	root := tr.begin(spanPass, -1, pass)
	batch := 0
	for off := 0; off < len(r.pkts); off += batchRows {
		b := r.pkts[off:min(off+batchRows, len(r.pkts))]
		rt.fill(tr, root, pass, b)
		id := tr.begin(spanSwitch, root, pass)
		sw.ProcessColumns(rt.cols)
		tr.end(id, len(b))
		if capturing {
			l.cap.batchEnd = append(l.cap.batchEnd, len(l.cap.msgs))
		} else {
			replay(root, batch)
		}
		batch++
	}
	if capturing {
		// Read with every group still resident, and only on the
		// untraced capture pass: StateBytes walks the group tables.
		l.groupsLive, l.stateBytes = nic.Stats().GroupsLive, nic.StateBytes()
	}
	id := tr.begin(spanSwFlush, root, pass)
	sw.Flush()
	tr.end(id, 0)
	if capturing {
		l.cap.batchEnd = append(l.cap.batchEnd, len(l.cap.msgs))
	} else {
		replay(root, batch)
	}
	id = tr.begin(spanNICFlush, root, pass)
	nic.Flush()
	tr.end(id, 0)
	tr.end(root, len(r.pkts))

	l.sw, l.nic = sw.Stats(), nic.Stats()
	l.passRatio = float64(rt.passed) / float64(len(r.pkts))
	if capturing {
		if got := sink.String(); got != r.ref.Digest {
			return fmt.Errorf("%s: staged pipeline digest %s differs from sequential engine %s", r.w.Name, got, r.ref.Digest)
		}
		return nil
	}
	if msgs != len(l.cap.msgs) {
		return fmt.Errorf("%s: staged switch emitted %d messages, captured stream has %d", r.w.Name, msgs, len(l.cap.msgs))
	}
	if sink.n != r.ref.Vectors || sink.dims != r.ref.Dims {
		return fmt.Errorf("%s: NIC replay emitted %d vectors (%d dims), want %d (%d)", r.w.Name, sink.n, sink.dims, r.ref.Vectors, r.ref.Dims)
	}
	return nil
}

// repeat calls f at least minN times and then until budget is spent,
// returning the values.
func repeat(minN int, budget time.Duration, f func() (float64, error)) ([]float64, error) {
	var xs []float64
	for t0 := time.Now(); len(xs) < minN || time.Since(t0) < budget; {
		x, err := f()
		if err != nil {
			return nil, err
		}
		xs = append(xs, x)
	}
	return xs, nil
}

// checkCounts fails a rung whose output differs from the reference.
func (r *runner) checkCounts(rung string, t *tally) error {
	if t.n != r.ref.Vectors || t.dims != r.ref.Dims {
		return fmt.Errorf("%s: %s emitted %d vectors (%d dims), want %d (%d)", r.w.Name, rung, t.n, t.dims, r.ref.Vectors, r.ref.Dims)
	}
	return nil
}

// seqPass is the inline engine: core.New, one goroutine, no ring.
func (r *runner) seqPass() (float64, error) {
	var sink tally
	runtime.GC()
	fe, err := core.New(core.DefaultOptions(), r.pol, sink.add)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := range r.pkts {
		fe.Process(&r.pkts[i])
	}
	fe.Flush()
	ns := float64(time.Since(t0)) / float64(len(r.pkts))
	return ns, r.checkCounts("core.New", &sink)
}

// warmLoop reproduces the BENCH_<n>.json measurement on this input:
// every group admitted by an untimed pass, then a timed Process loop
// over the trace again, no Flush. Kept for continuity with that
// trajectory; it is a state no deployment stays in.
func (r *runner) warmLoop() (float64, error) {
	var sink tally
	runtime.GC()
	pe, err := core.NewParallel(engineOptions(1, false), r.pol, sink.add)
	if err != nil {
		return 0, err
	}
	defer pe.Close()
	for i := range r.pkts {
		pe.Process(&r.pkts[i])
	}
	pe.Drain()
	t0 := time.Now()
	for i := range r.pkts {
		pe.Process(&r.pkts[i])
	}
	pe.Drain()
	return float64(time.Since(t0)) / float64(len(r.pkts)), pe.Err()
}

// rejectAll is the bench-defined policy of the hand-off rung: its
// filter passes nothing, so a pass costs the router, both rings and
// the switch's reject branch, and no cache or NIC work.
func rejectAll() (*policy.Policy, error) {
	return policy.New("bench-reject-all").
		Filter(policy.And(policy.TCPExists(), policy.UDPExists())).
		GroupBy(flowkey.GranFlow).
		Map("one", policy.SrcNone, policy.MapOne).
		Reduce("one", policy.RF(streaming.FSum)).
		Collect().
		Build()
}

// handoff is a ParallelEngine pass under rejectAll minus that policy's
// own router steps timed in isolation.
func (r *runner) handoff() (float64, error) {
	pol, err := rejectAll()
	if err != nil {
		return 0, err
	}
	plan, err := policy.Compile(pol)
	if err != nil {
		return 0, err
	}
	var sink tally
	res, err := parallelPass(engineOptions(1, false), pol, r.pkts, &sink, nil)
	if err != nil {
		return 0, err
	}
	if sink.n != 0 {
		return 0, fmt.Errorf("reject-all policy emitted %d vectors", sink.n)
	}
	rt := newRouter(plan)
	t0 := time.Now()
	for off := 0; off < len(r.pkts); off += batchRows {
		rt.fill(nil, -1, 0, r.pkts[off:min(off+batchRows, len(r.pkts))])
	}
	routerOnly := time.Since(t0)
	if rt.passed != 0 {
		return 0, fmt.Errorf("reject-all predicate passed %d packets", rt.passed)
	}
	return float64(res.wall-routerOnly) / float64(len(r.pkts)), nil
}

// baselinePass is the paper's Figure 9 software comparison (and the
// independent oracle) on the same input.
func (r *runner) baselinePass() (float64, error) {
	var sink tally
	runtime.GC()
	ext, err := baseline.New(r.pol, sink.add)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := range r.pkts {
		ext.Process(&r.pkts[i])
	}
	ext.Flush()
	return float64(time.Since(t0)) / float64(len(r.pkts)), nil
}

// nicAllocs replays the captured stream into a fresh runtime and
// counts its heap allocations.
func (l *ladder) nicAllocs() (float64, error) {
	var sink tally
	nic, err := nicsim.NewRuntime(core.DefaultOptions().NIC, l.r.plan, sink.add)
	if err != nil {
		return 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	for _, m := range l.cap.msgs {
		nic.Process(m)
	}
	nic.Flush()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / float64(len(l.r.pkts)), l.r.checkCounts("NIC replay", &sink)
}

// wireRoundTrip is Marshal + Unmarshal over the captured stream: the
// cost VerifyWire would add, off on the default path.
func (l *ladder) wireRoundTrip() (nsPerMsg, bytesPerMsg float64, err error) {
	var buf []byte
	total := 0
	t0 := time.Now()
	for i := range l.cap.msgs {
		if buf, err = l.cap.msgs[i].Marshal(buf[:0]); err != nil {
			return 0, 0, err
		}
		total += len(buf)
		if _, n, err := gpv.Unmarshal(buf); err != nil || n != len(buf) {
			return 0, 0, fmt.Errorf("gpv round trip: consumed %d of %d bytes: %v", n, len(buf), err)
		}
	}
	n := float64(len(l.cap.msgs))
	return float64(time.Since(t0)) / n, float64(total) / n, nil
}

// codecRungs times the serve wire codec on this input: the client's
// packet-frame encoding, the server's decoding of those frames, and
// the subscription's vector-frame encoding.
func (l *ladder) codecRungs() (encNS, decNS, vecNS float64, frames, bytes int, err error) {
	pkts := l.r.pkts
	var recorded [][]byte
	var payload, frame []byte
	// encode frames the whole trace as the client does; keeping the
	// payloads for the decode rung is a second, untimed walk.
	encode := func(keep bool) error {
		frames, bytes = 0, 0
		for off := 0; off < len(pkts); off += frameRows {
			payload = payload[:0]
			for i := off; i < min(off+frameRows, len(pkts)); i++ {
				payload = serve.AppendPacket(payload, &pkts[i])
			}
			var err error
			if frame, err = gpv.AppendFrame(frame[:0], serve.FramePackets, payload); err != nil {
				return err
			}
			frames++
			bytes += len(frame)
			if keep {
				recorded = append(recorded, append([]byte(nil), payload...))
			}
		}
		return nil
	}
	t0 := time.Now()
	if err = encode(false); err != nil {
		return
	}
	encNS = float64(time.Since(t0)) / float64(len(pkts))
	if err = encode(true); err != nil {
		return
	}

	var dst []packet.Packet
	t0 = time.Now()
	for _, p := range recorded {
		if dst, err = serve.DecodePackets(dst[:0], p); err != nil {
			return
		}
	}
	decNS = float64(time.Since(t0)) / float64(len(pkts))

	t0 = time.Now()
	for i := range l.cap.vectors {
		payload = serve.AppendVector(payload[:0], &l.cap.vectors[i])
		if frame, err = gpv.AppendFrame(frame[:0], serve.FrameVector, payload); err != nil {
			return
		}
	}
	vecNS = float64(time.Since(t0)) / float64(max(len(l.cap.vectors), 1))
	return
}

// modelledCycles is the NIC cost model's cycles per cell for this
// plan: simulated NFP time, not host time.
func modelledCycles(plan *policy.Plan) (float64, error) {
	cfg := core.DefaultOptions().NIC
	pl, err := nicsim.Place(cfg, plan.NIC.StateSpecs)
	if err != nil {
		return 0, err
	}
	return nicsim.NewCostModel(cfg, plan.NIC, pl).CyclesPerCell(), nil
}

// perLayer runs the traced run and returns the per-layer metrics in
// BENCHMARK.json's order. budget is the time the repeated rungs share;
// calib is the run's reference-kernel reading; enforce is false on
// scaled-down smoke inputs, whose passes are too short for the
// residual to mean anything.
func (r *runner) perLayer(budget time.Duration, calib float64, enforce bool) ([]metric, *tracer, error) {
	l := &ladder{r: r, tr: newTracer()}
	share := budget / 8
	n := float64(len(r.pkts))

	if err := l.stagedPass(nil, 0, true); err != nil {
		return nil, nil, err
	}
	// A traced pass and a sequential-engine pass alternate, so that a
	// slow spell of the machine lands on both sides of the residual.
	pass := 0
	seq, err := repeat(5, 2*share, func() (float64, error) {
		pass++
		if err := l.stagedPass(l.tr, pass, false); err != nil {
			return 0, err
		}
		return r.seqPass()
	})
	if err != nil {
		return nil, nil, err
	}
	self := selfTimes(l.tr.spans)
	perPass := make([]map[string]float64, pass+1)
	for i, s := range l.tr.spans {
		if perPass[s.Pass] == nil {
			perPass[s.Pass] = map[string]float64{}
		}
		perPass[s.Pass][s.Name] += float64(self[i])
	}
	// stage returns the median over traced passes of the summed self
	// time of the named spans.
	stage := func(names ...string) float64 {
		xs := make([]float64, 0, pass)
		for _, m := range perPass[1:] {
			sum := 0.0
			for _, name := range names {
				sum += m[name]
			}
			xs = append(xs, sum)
		}
		return median(xs)
	}

	// Bare and obs-enabled engine passes alternate so a burst of
	// machine noise lands on both sides of the ratio.
	var bare, withObs []passResult
	var memReadings []float64
	if _, err := repeat(3, share, func() (float64, error) {
		for _, obsOn := range []bool{false, true} {
			var sink tally
			res, err := parallelPass(engineOptions(1, obsOn), r.pol, r.pkts, &sink, nil)
			if err != nil {
				return 0, err
			}
			if err := r.checkCounts("ParallelEngine", &sink); err != nil {
				return 0, err
			}
			if obsOn {
				withObs = append(withObs, res)
			} else {
				bare = append(bare, res)
				// Read as the end-to-end run reads it: right after a pass.
				memReadings = append(memReadings, r.mem.nsPerOp())
			}
		}
		return 0, nil
	}); err != nil {
		return nil, nil, err
	}
	wallNS := func(p passResult) float64 { return float64(p.wall) / n }
	parallel := overPasses("core.parallel_ns_per_pkt", "ns", bare, wallNS)
	withObsNS := overPasses("obs-enabled pass", "ns", withObs, wallNS).Value

	w2, err := repeat(2, share/2, func() (float64, error) {
		var sink tally
		res, err := parallelPass(engineOptions(2, false), r.pol, r.pkts, &sink, nil)
		if err != nil {
			return 0, err
		}
		return wallNS(res), r.checkCounts("ParallelEngine workers=2", &sink)
	})
	if err != nil {
		return nil, nil, err
	}
	warm, err := repeat(2, share/2, r.warmLoop)
	if err != nil {
		return nil, nil, err
	}
	hand, err := repeat(3, share/2, r.handoff)
	if err != nil {
		return nil, nil, err
	}
	base, err := repeat(1, share/2, r.baselinePass)
	if err != nil {
		return nil, nil, err
	}

	svc, err := r.service()
	if err != nil {
		return nil, nil, err
	}
	var served []passResult
	if _, err := repeat(2, share, func() (float64, error) {
		var sink tally
		res, err := svc.pass(r.w.Policy, r.pkts, r.ref.Vectors, &sink, nil)
		if err != nil {
			return 0, err
		}
		served = append(served, res)
		return 0, r.checkCounts("serve", &sink)
	}); err != nil {
		return nil, nil, err
	}
	servedNS := overPasses("serve.ns_per_pkt", "ns", served, wallNS)
	var frameErrs uint64
	for _, p := range served {
		frameErrs += p.frameErrs
	}

	nicAllocs, err := l.nicAllocs()
	if err != nil {
		return nil, nil, err
	}
	wireNS, wireBytes, err := l.wireRoundTrip()
	if err != nil {
		return nil, nil, err
	}
	encNS, decNS, vecNS, frames, frameBytes, err := l.codecRungs()
	if err != nil {
		return nil, nil, err
	}
	cycles, err := modelledCycles(r.plan)
	if err != nil {
		return nil, nil, err
	}

	seqNS := median(seq)
	ladderSum := stage(stageSpans...) / n
	residual := (seqNS - ladderSum) / seqNS
	var evictions uint64
	for _, e := range l.sw.Evictions {
		evictions += e
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	out := []metric{
		{Name: "trace.gen_s", Value: r.genS, Unit: "s"},
		{Name: "trace.pkts", Value: n, Unit: "count"},
		{Name: "trace.flows", Value: float64(r.stats.Flows), Unit: "count"},
		{Name: "trace.avg_flow_len", Value: r.stats.AvgFlowLength, Unit: "pkts"},

		{Name: "serve.client_encode_ns_per_pkt", Value: encNS, Unit: "ns"},
		{Name: "serve.decode_ns_per_pkt", Value: decNS, Unit: "ns"},
		{Name: "serve.vector_encode_ns_per_vec", Value: vecNS, Unit: "ns"},
		servedNS,
		{Name: "serve.transport_ns_per_pkt", Value: servedNS.Value - parallel.Value, Unit: "ns"},
		overPasses("serve.tenant_start_ms", "ms", served, func(p passResult) float64 { return ms(p.startup) }),
		{Name: "serve.frames_in", Value: float64(frames), Unit: "count"},
		{Name: "serve.bytes_in", Value: float64(frameBytes), Unit: "bytes"},
		{Name: "serve.vectors_out", Value: float64(served[len(served)-1].vectors), Unit: "count"},
		{Name: "serve.frames_failed", Value: float64(frameErrs), Unit: "count"},

		{Name: "flowkey.key_hash_ns_per_pkt", Value: stage(spanKeyHash) / n, Unit: "ns"},

		{Name: "policy.pred_eval_ns_per_pkt", Value: stage(spanPredicate) / n, Unit: "ns"},
		{Name: "policy.filter_pass_ratio", Value: l.passRatio, Unit: "ratio"},
		{Name: "policy.compile_ms", Value: r.compileMS, Unit: "ms"},

		{Name: "switchsim.columns_append_ns_per_pkt", Value: stage(spanAppend) / n, Unit: "ns"},
		{Name: "switchsim.process_columns_ns_per_pkt", Value: stage(spanSwitch) / n, Unit: "ns"},
		{Name: "switchsim.flush_ms", Value: stage(spanSwFlush) / 1e6, Unit: "ms"},
		{Name: "switchsim.msgs_out", Value: float64(l.sw.MsgsOut), Unit: "count"},
		{Name: "switchsim.cells_per_msg", Value: ratio(l.sw.CellsOut, l.sw.MsgsOut-l.sw.FGUpdates), Unit: "cells"},
		{Name: "switchsim.evict_collision_ratio", Value: ratio(l.sw.Evictions[gpv.EvictCollision], evictions), Unit: "ratio"},
		{Name: "switchsim.evict_full_ratio", Value: ratio(l.sw.Evictions[gpv.EvictFull], evictions), Unit: "ratio"},
		{Name: "switchsim.fg_updates", Value: float64(l.sw.FGUpdates), Unit: "count"},
		{Name: "switchsim.fg_overwrites", Value: float64(l.sw.FGOverwrites), Unit: "count"},

		parallel,
		{Name: "core.seq_ns_per_pkt", Value: seqNS, Unit: "ns"},
		{Name: "core.warm_ns_per_pkt", Value: median(warm), Unit: "ns"},
		{Name: "core.handoff_ns_per_pkt", Value: median(hand), Unit: "ns"},
		{Name: "core.w2_ns_per_pkt", Value: median(w2), Unit: "ns"},
		overPasses("core.flush_ms", "ms", bare, func(p passResult) float64 { return ms(p.drain) }),
		overPasses("core.deploy_ms", "ms", bare, func(p passResult) float64 { return ms(p.startup) }),
		{Name: "core.ladder_sum_ns_per_pkt", Value: ladderSum, Unit: "ns"},
		{Name: "core.ladder_residual_ratio", Value: residual, Unit: "ratio"},

		{Name: "gpv.wire_roundtrip_ns_per_msg", Value: wireNS, Unit: "ns"},
		{Name: "gpv.bytes_per_msg", Value: wireBytes, Unit: "bytes"},

		{Name: "nicsim.process_ns_per_pkt", Value: stage(spanNIC) / n, Unit: "ns"},
		{Name: "nicsim.process_ns_per_msg", Value: stage(spanNIC) / float64(len(l.cap.msgs)), Unit: "ns"},
		{Name: "nicsim.flush_ms", Value: stage(spanNICFlush) / 1e6, Unit: "ms"},
		{Name: "nicsim.allocs_per_pkt", Value: nicAllocs, Unit: "1/pkt"},
		{Name: "nicsim.groups_live", Value: float64(l.groupsLive), Unit: "count"},
		{Name: "nicsim.state_bytes", Value: float64(l.stateBytes), Unit: "bytes"},
		{Name: "nicsim.vectors_out", Value: float64(l.nic.Vectors), Unit: "count"},
		{Name: "nicsim.modelled_cycles_per_pkt", Value: cycles, Unit: "sim-cycles"},

		{Name: "obs.overhead_ratio", Value: (withObsNS - parallel.Value) / parallel.Value, Unit: "ratio"},

		{Name: "baseline.ns_per_pkt", Value: median(base), Unit: "ns"},

		{Name: "bench.calib_ns_per_op", Value: calib, Unit: "ns"},
		{Name: "bench.memref_ns_per_op", Value: median(memReadings), Unit: "ns"},
		{Name: "bench.spans", Value: float64(len(l.tr.spans)), Unit: "count"},
		{Name: "bench.span_overhead_ns_per_pkt", Value: stage(spanPass) / n, Unit: "ns"},
		{Name: "bench.passes", Value: float64(pass), Unit: "count"},
	}
	if enforce && math.Abs(residual) > residualTolerance {
		return out, l.tr, fmt.Errorf("%s: ladder residual %.3f: isolated rungs sum to %.1f ns/pkt, sequential engine is %.1f (tolerance %.2f)",
			r.w.Name, residual, ladderSum, seqNS, residualTolerance)
	}
	return out, l.tr, nil
}

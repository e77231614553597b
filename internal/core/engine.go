package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/switchsim"
)

// ParallelOptions configures a sharded deployment.
type ParallelOptions struct {
	Options
	// Workers is the number of shards (switch+NIC pairs), each owned
	// by one goroutine — the analogue of NIC cores fed by the NBI
	// distributor. NewFromPlan reads zero as the inline configuration.
	Workers int
	// BatchSize is the number of packets in one columnar batch handed
	// to a shard per ring slot; batching amortizes the synchronization
	// cost the way the MGPV batches amortize the switch→NIC channel.
	BatchSize int
	// QueueDepth is the number of batches that may be in flight per
	// shard before Process applies backpressure.
	QueueDepth int
	// DeterministicMerge buffers each shard's vectors and emits them
	// in shard order at Flush, making the output sequence
	// deterministic run-to-run (each shard's own stream already is).
	// Without it vectors stream to the sink as produced — buffered in
	// small shard-local runs and flushed under one lock acquisition
	// per run, interleaved nondeterministically across shards.
	DeterministicMerge bool
}

// DefaultParallelOptions returns the default sharded configuration:
// 4 workers, 256-packet batches. The batch default keeps the per-packet
// hand-off cost low enough that a single-worker deployment matches the
// inline one; smaller batches trade throughput for lower per-shard
// latency.
func DefaultParallelOptions() ParallelOptions {
	return ParallelOptions{
		Options:    DefaultOptions(),
		Workers:    4,
		BatchSize:  defaultBatch,
		QueueDepth: 4,
	}
}

// defaultBatch is the rows per columnar batch by default and when
// BatchSize is unset, and always in the inline configuration.
const defaultBatch = 256

// sinkRunLen is the shard-local vector run buffered between shared-sink
// flushes in streaming (non-DeterministicMerge) mode: one lock
// acquisition per run instead of per vector.
const sinkRunLen = 64

// snapshotInterval is the telemetry's logical-clock snapshot period:
// with Obs.Enabled, the Recorder captures one interval delta every
// snapshotInterval routed packets.
const snapshotInterval = 1 << 16

// pendingVec is one run-buffered vector in streaming mode: values live
// in the shard's reusable arena (offset+length), so buffering a run
// allocates nothing in the steady state.
type pendingVec struct {
	key flowkey.Key
	ts  int64
	off int
	n   int
}

// shard is one switch+NIC pair and the batches in flight to it. In the
// worker configuration a goroutine owns the pair and drains the in
// ring; inline, in and done are nil and the router calls handle itself.
type shard struct {
	eng *Engine
	fe  *pair
	in  *spscRing // router → worker: batches, barriers riding in their slots
	// cur is the slot the router fills: the ring slot it holds, or
	// inline the shard's one slot.
	cur  *slot
	vecs []feature.Vector // DeterministicMerge buffer
	// Streaming-mode run buffer: emitted vectors accumulate here and
	// flush to the shared sink in one lock acquisition per run.
	pend     []pendingVec
	pendVals []float64
	done     chan struct{}

	// Span tracing: idx and batches identify spans (batches is the
	// router-owned dispatch ordinal, incremented per dispatched batch);
	// spans is the shard's ring from its obs pipeline (nil when
	// telemetry or span sampling is off).
	idx     int32
	batches uint64
	spans   *obs.Ring[obs.BatchSpan]
}

// Engine is a deployed feature extractor — the software analogue of
// the hardware parallelism the paper scales on. The prototype
// distributes work across the Tofino pipeline plus the NFP-4000's
// islands × cores × 8 threads, with the ingress NBI sharding flows
// per-IP so cores share no state (§6.2). Engine reproduces that shape
// on host cores: the router parses each packet once — CG key, key
// hash, filter verdict, batched metadata fields — into columnar
// batches and shards them by CG-hash fastrange across independent
// switch+NIC pairs. The ingress-computed hash rides the columns into
// the switch's slot indexing, the NIC's grouping, fault scoping and
// tracer sampling — §6.2's hash-reuse trick applied end-to-end.
//
// The two constructors differ only in who runs the shards. NewParallel
// gives every shard a worker goroutine fed over lock-free SPSC rings
// with spin-then-park blocking, so shards run without locks and the
// hot path performs no steady-state allocations. New is the inline
// configuration: one shard, no rings, no goroutine — a full batch is
// extracted on the caller's goroutine and vectors reach the sink
// directly, in emission order.
//
// Process routes packets; Flush drains; the stats methods merge shard
// counters. Process, Flush, SwapPlan, Close and the other router-side
// methods take one goroutine at a time, each call ordered after the
// last by synchronisation (internal/serve holds a tenant mutex across
// them). Nothing depends on which goroutine that is: the router's
// state, the rings' producer sides and the router's flight ring are
// single-writer at a time under that happens-before edge.
type Engine struct {
	opts       ParallelOptions
	inline     bool
	plan       *policy.Plan
	pred       policy.Predicate
	cg         flowkey.Granularity
	metaFields []packet.FieldName
	shards     []*shard
	sink       feature.Sink
	sinkMu     sync.Mutex
	closed     bool

	// Router-level telemetry (obsReg nil when Options.Obs is disabled,
	// making the disabled hot path a single branch): a small registry
	// of per-shard routing counters — the packet skew the CG-hash
	// sharding produces — appended after the merged shard registries in
	// every snapshot, plus the engine's interval recorder (ticked per
	// routed packet, captured at a barrier).
	obsReg    *obs.Registry
	shardPkts []obs.Counter
	rec       *obs.Recorder

	// pkts is the router's logical clock (packets routed), the clock
	// domain of router flight-recorder events and span fill marks;
	// pubPkts republishes it atomically at each dispatch/barrier for
	// the live /status overlay.
	pkts    uint64
	pubPkts atomic.Uint64

	// fr is the router's own flight ring (shard -1: barriers, ring
	// parks, dump markers); nil when disabled.
	// Anomalies — the router's own and every shard's — are pended
	// first-wins into frPend (shard triggers fire on shard goroutines
	// and the router's fire inside a blocked push, where no barrier can
	// run) and materialized by the router at the next barrier; inControl
	// guards against re-entering a barrier from its own dispatches.
	fr        *obs.Ring[obs.Event]
	frPend    atomic.Pointer[obs.Anomaly]
	inControl bool
	frDumps   int

	// The admin cache (admin.go), rebuilt at every barrier (a quiescence
	// point: all shards drained, shard-goroutine writes ordered before
	// the router by the ack channel) and served to the HTTP goroutine
	// behind adminMu with health/clock overlaid live from atomics.
	anomalies   uint64
	lastAnomaly string
	dumpErr     error
	adminMu     sync.Mutex
	admin       adminCache
}

// New compiles the policy and deploys it inline: one shard extracted
// on the caller's goroutine in 256-packet batches, vectors handed to
// the sink directly. Vectors and merged stats are identical to a
// one-worker NewParallel deployment's.
func New(opts Options, pol *policy.Policy, sink feature.Sink) (*Engine, error) {
	return compileAndDeploy(ParallelOptions{Options: opts}, pol, sink)
}

// NewParallel compiles the policy once and deploys it on Workers
// shards, each with its own worker goroutine. MGPVs of one CG group
// always land on the same shard, so per-group feature streams — and
// therefore the emitted vectors — are identical to an inline run's,
// as a multiset.
func NewParallel(opts ParallelOptions, pol *policy.Policy, sink feature.Sink) (*Engine, error) {
	if opts.Workers <= 0 {
		return nil, fmt.Errorf("core: NewParallel needs at least one worker, got %d", opts.Workers)
	}
	return compileAndDeploy(opts, pol, sink)
}

func compileAndDeploy(opts ParallelOptions, pol *policy.Policy, sink feature.Sink) (*Engine, error) {
	plan, err := policy.Compile(pol)
	if err != nil {
		return nil, fmt.Errorf("core: compile %q: %w", pol.Name(), err)
	}
	return NewFromPlan(opts, plan, sink)
}

// NewFromPlan deploys an already-compiled plan — the constructor New
// and NewParallel wrap, exported for callers that vet a plan before
// deploying it (internal/serve). Workers == 0 selects the inline
// configuration, which ignores BatchSize, QueueDepth and
// DeterministicMerge.
func NewFromPlan(opts ParallelOptions, plan *policy.Plan, sink feature.Sink) (*Engine, error) {
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", opts.Workers)
	}
	inline := opts.Workers == 0
	if inline {
		opts.Workers, opts.BatchSize = 1, defaultBatch
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatch
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4
	}
	if sink == nil {
		return nil, fmt.Errorf("core: nil sink")
	}
	e := &Engine{
		opts:       opts,
		inline:     inline,
		plan:       plan,
		pred:       plan.Switch.Pred,
		cg:         plan.Switch.CG,
		metaFields: plan.Switch.MetadataFields,
		sink:       sink,
	}
	if !opts.FlightRec.Disable {
		// The router's own ring (shard -1). Its triggers (sustained
		// ring-full) can fire inside a blocked push, so they pend like
		// the shard anomalies instead of materializing inline.
		e.fr = obs.NewFlightRing(-1, e.pendAnomaly)
	}
	var err error
	e.shards, err = e.deployShards(plan)
	if err != nil {
		return nil, err
	}
	if opts.Obs.Enabled {
		// Router-level registry: per-shard routing counters exposing
		// the packet skew of the CG-hash sharding. Kept separate from
		// the shard registries (whose schemas must stay identical for
		// the flat-array merge) and appended to every snapshot.
		e.obsReg = obs.NewRegistry()
		e.shardPkts = make([]obs.Counter, opts.Workers)
		for i := range e.shardPkts {
			e.shardPkts[i] = e.obsReg.Counter("superfe_engine_shard_pkts_total",
				"packets routed to each shard (CG-hash skew)", obs.L("shard", strconv.Itoa(i)))
		}
		e.obsReg.Seal()
		e.rec = obs.NewRecorder(snapshotInterval, e.captureQuiesced)
	}
	e.refreshAdmin()
	return e, nil
}

// deployShards builds one complete shard set — switch+NIC pair and,
// in the worker configuration, the ring with its columnar batches and
// the worker goroutine — for the given compiled plan, without touching
// the engine's current shard set. It is the constructor's shard loop,
// factored out so SwapPlan can stand up a candidate deployment off to
// the side and only then retire the live one. On error the partially
// built set is stopped and nothing is left running.
func (e *Engine) deployShards(plan *policy.Plan) ([]*shard, error) {
	opts := e.opts
	nf := len(plan.Switch.MetadataFields)
	shards := make([]*shard, 0, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		sh := &shard{eng: e, idx: int32(i)}
		var shardSink feature.Sink
		switch {
		case e.inline:
			// Same goroutine as the caller: no buffering, no lock.
			shardSink = e.sink
		case opts.DeterministicMerge:
			// Shard-local buffer: no lock needed, emitted in shard
			// order at Flush.
			shardSink = feature.Collect(&sh.vecs)
		default:
			shardSink = sh.bufferVec
		}
		// Shard anomaly triggers fire on the shard goroutine; pendAnomaly
		// parks them (thread-safe CAS) for the router to materialize at
		// the next barrier.
		fe, err := newPair(opts.Options, plan, i, shardSink, e.pendAnomaly)
		if err != nil {
			stopShards(shards)
			return nil, err
		}
		sh.fe = fe
		if fe.obs != nil {
			sh.spans = fe.obs.Spans
		}
		shards = append(shards, sh)
		if e.inline {
			sh.cur = &slot{cols: switchsim.NewColumns(opts.BatchSize, nf)}
			continue
		}
		// Pre-sized columnar batches, one per ring slot: one being
		// filled by the router, QueueDepth in flight.
		sh.in = newSPSCRing(opts.QueueDepth, opts.BatchSize, nf, 0)
		sh.cur = &sh.in.slots[0]
		sh.done = make(chan struct{})
		// The router is the ring's producer, so its recorder and clock
		// are safe here.
		sh.in.hookProdFR(e.fr, &e.pkts)
		if fe.obs != nil {
			sh.in.instrument(fe.obs.Ring)
		}
		//superfe:goroutine-ok shard worker: exits when stopShards closes its input ring (pop returns ok=false) and is joined via sh.done
		go sh.run()
	}
	return shards, nil
}

// stopShards closes the shard input rings and joins the workers
// (inline shards have neither).
func stopShards(shards []*shard) {
	for _, sh := range shards {
		if sh.in != nil {
			sh.in.close()
		}
	}
	for _, sh := range shards {
		if sh.done != nil {
			<-sh.done
		}
	}
}

// SwapPlan atomically replaces the deployed plan at a batch barrier —
// the engine-lifecycle half of a tenant hot reload. The sequence is:
// a complete candidate shard set (switches, NICs, rings, columnar
// batches sized for the new metadata layout, worker goroutines) is
// built off to the side while the live deployment keeps serving; the
// live deployment is then flushed (a barrier — every packet handed to
// Process is extracted and every old-plan vector reaches the sink
// before the swap, so the output stream is a clean old-plan prefix
// followed by new-plan vectors, never a torn batch); finally the old
// workers are retired and the candidate installed. A candidate that
// fails to deploy leaves the live plan serving untouched.
//
// SwapPlan performs no feasibility checking itself — callers that
// must reject envelope or value-range violations gate the candidate
// through planvet/planprove first (internal/serve does). Per-shard
// pipeline counters and flight-recorder rings restart with the new
// deployment, like any fresh deployment's; the router's clock,
// routing counters and flight recorder carry across the swap.
// Router side only, like Process and Flush.
func (e *Engine) SwapPlan(plan *policy.Plan) error {
	if e.closed {
		return fmt.Errorf("core: engine is closed")
	}
	next, err := e.deployShards(plan)
	if err != nil {
		return fmt.Errorf("core: plan swap: deploy candidate: %w", err)
	}
	if err := e.Flush(); err != nil {
		stopShards(next)
		return fmt.Errorf("core: plan swap: flush live plan: %w", err)
	}
	old := e.shards
	// Install under adminMu: Status and ObsScrape walk the shard slice
	// from the HTTP goroutine while the router swaps it.
	e.adminMu.Lock()
	e.shards = next
	e.adminMu.Unlock()
	stopShards(old)
	e.plan, e.pred, e.cg, e.metaFields = plan, plan.Switch.Pred, plan.Switch.CG, plan.Switch.MetadataFields
	e.refreshAdmin()
	return nil
}

// liveShards snapshots the shard slice for readers off the router
// side (the admin HTTP surface), which must not race a SwapPlan
// installing a new set. Router-side code reads e.shards directly —
// SwapPlan is a router-side call, so no swap can interleave.
func (e *Engine) liveShards() []*shard {
	e.adminMu.Lock()
	defer e.adminMu.Unlock()
	return e.shards
}

// captureQuiesced is the interval recorder's capture: it drains every
// shard (barrier, no flush) so the merged snapshot is an exact cut —
// under a fixed seed the same packets yield byte-identical snapshots
// run-to-run — then merges the shard registries and appends the
// router's. Router side only, like Process.
func (e *Engine) captureQuiesced() *obs.Snapshot {
	e.barrier(false)
	return e.mergedSnapshot()
}

// mergedSnapshot sums the per-shard registries (identical schemas,
// so the flat value arrays line up) and appends the router registry.
func (e *Engine) mergedSnapshot() *obs.Snapshot {
	shards := e.liveShards()
	snaps := make([]*obs.Snapshot, len(shards))
	for i, sh := range shards {
		snaps[i] = sh.fe.obs.Registry.Snapshot()
	}
	merged := obs.MergeSnapshots(snaps...)
	merged.Append(e.obsReg.Snapshot())
	return merged
}

// run is the shard worker loop: pop a slot, handle it, and only then
// release it — the release hands the batch back to the router — and
// acknowledge the barrier it carried.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		s, ok := sh.in.pop()
		if !ok {
			return
		}
		sh.handle(s)
		ack := s.ctl
		sh.in.release()
		if ack != nil {
			ack <- struct{}{}
		}
	}
}

// handle does one slot's work on the pair: extract its rows and reset
// the batch for reuse, then honour the barrier riding in it. Inline the
// barrier has no ack channel, and a non-flushing one has nothing to do:
// vectors already reach the sink directly. It runs on the worker
// goroutine, or on the router's when the engine is inline, and touches
// no ring either way.
//
//superfe:hotpath
func (sh *shard) handle(s *slot) {
	if c := s.cols; c.N > 0 {
		if c.Span.Sampled {
			sh.traceColumns(c)
		} else {
			sh.fe.processColumns(c)
		}
		c.Reset()
	}
	if s.ctl != nil || s.flush {
		sh.handleBarrier(s.flush)
	}
}

// handleBarrier optionally flushes the pair. Barrier contract: every
// vector produced so far is at the shared sink on return, except with
// DeterministicMerge, where the shard holds them until Flush emits
// them in shard order: emitting at every barrier would make the order
// depend on when telemetry snapshots ran.
//
//superfe:coldpath
func (sh *shard) handleBarrier(flush bool) {
	if flush {
		sh.fe.flush()
	}
	sh.flushPending()
}

// traceColumns processes a span-sampled batch, bracketing the
// extraction with the shard's own switch/NIC counters: the switch
// delivers evicted MGPVs synchronously, so all NIC work the batch
// caused lands inside the bracket. The completed span is copied out
// of the batch (which is about to be reset for reuse) into the shard's
// ring. Stats are value copies on the stack — no allocation.
func (sh *shard) traceColumns(c *switchsim.Columns) {
	sp := c.Span
	sw0 := sh.fe.sw.Stats()
	nic0 := sh.fe.nic.Stats()
	sh.fe.processColumns(c)
	sw1 := sh.fe.sw.Stats()
	nic1 := sh.fe.nic.Stats()
	sp.SwPktsIn = uint32(sw1.PktsIn - sw0.PktsIn)
	sp.SwFiltered = uint32(sw1.PktsFiltered - sw0.PktsFiltered)
	sp.SwCellsOut = uint32(sw1.CellsOut - sw0.CellsOut)
	sp.SwMsgsOut = uint32(sw1.MsgsOut - sw0.MsgsOut)
	var ev uint64
	for i := range sw1.Evictions {
		ev += sw1.Evictions[i] - sw0.Evictions[i]
	}
	sp.SwEvictions = uint32(ev)
	sp.SwShed = uint32(sw1.ShedCells - sw0.ShedCells)
	sp.NICMsgs = uint32(nic1.Msgs - nic0.Msgs)
	sp.NICMGPVs = uint32(nic1.MGPVs - nic0.MGPVs)
	sp.NICCells = uint32(nic1.Cells - nic0.Cells)
	sp.NICVectors = uint32(nic1.Vectors - nic0.Vectors)
	sp.NICEMEMDrops = uint32(nic1.EMEMDrops - nic0.EMEMDrops)
	sh.spans.Record(sp)
}

// bufferVec is the streaming-mode shard sink: it copies the vector
// into the shard-local arena and flushes a full run to the shared sink
// under one lock acquisition. Values are arena-backed, so the sink
// contract (do not retain without copying) is unchanged.
//
//superfe:hotpath
func (sh *shard) bufferVec(v feature.Vector) {
	off := len(sh.pendVals)
	sh.pendVals = append(sh.pendVals, v.Values...)
	sh.pend = append(sh.pend, pendingVec{key: v.Key, ts: v.Timestamp, off: off, n: len(v.Values)})
	if len(sh.pend) >= sinkRunLen {
		sh.flushPending()
	}
}

// flushPending emits the shard's buffered run to the shared sink under
// a single lock acquisition, then resets the arena for reuse.
func (sh *shard) flushPending() {
	if len(sh.pend) == 0 {
		return
	}
	e := sh.eng
	e.sinkMu.Lock()
	for i := range sh.pend {
		p := &sh.pend[i]
		e.sink(feature.Vector{Key: p.key, Timestamp: p.ts, Values: sh.pendVals[p.off : p.off+p.n]})
	}
	e.sinkMu.Unlock()
	sh.pend = sh.pend[:0]
	sh.pendVals = sh.pendVals[:0]
}

// shardIndex maps a key hash onto a shard with a multiply-shift
// (fastrange); flowkey.HashKey says which bits each stage takes.
func shardIndex(h uint32, n int) int {
	return int((uint64(h) * uint64(n)) >> 32)
}

// Process routes one packet to its shard: it computes the CG key and
// hash once, evaluates the policy filter once, and appends everything
// the shard needs — including the batched metadata field values — to
// the shard's current columnar batch, dispatching over the ring when
// full. It returns the filter verdict (the same decision the shard's
// switch will account, without re-evaluating the predicate). Calls
// from several goroutines must be serialised (see Engine); p is read
// only during the call.
//
//superfe:hotpath
func (e *Engine) Process(p *packet.Packet) bool {
	e.pkts++
	key, _ := flowkey.KeyFor(e.cg, p.Tuple)
	h := flowkey.HashKey(key)
	si := shardIndex(h, len(e.shards))
	sh := e.shards[si]
	pass := e.pred.Eval(p)
	c := sh.cur.cols
	c.Append(p, key, h, pass, e.metaFields)
	if c.N >= e.opts.BatchSize {
		e.dispatch(sh)
	}
	if e.obsReg != nil {
		// Span lottery: a batch is traced when its first row's CG hash
		// wins the 1-in-K sampling — the hash is already in hand, so
		// the steady-state cost is one mask test per batch. The shard
		// routing counter is charged per batch in dispatch, not here:
		// an atomic add per packet is exactly the kind of diffuse tax
		// the obs-overhead gate exists to catch.
		if c := sh.cur.cols; c.N == 1 && sh.spans.Sampled(h) {
			sp := &c.Span
			sp.Sampled = true
			sp.Hash = h
			sp.FillStart = e.pkts
		}
		e.rec.Tick()
	}
	return pass
}

// dispatch hands the shard's current slot — its batch, and any
// barrier riding in it — to the worker by publishing it on the ring
// and takes the next slot, blocking until the worker has released it
// (backpressure); inline, it handles the slot in place and keeps it.
// A slot with no rows (a barrier alone) is not a batch. On a closed
// engine, whose workers have exited, the batch is dropped: the check
// runs once per batch, so the per-packet path carries no branch.
//
//superfe:hotpath
func (e *Engine) dispatch(sh *shard) {
	s := sh.cur
	c := s.cols
	if e.closed {
		c.Reset()
		return
	}
	var sp *obs.BatchSpan
	if c.N > 0 {
		sh.batches++
		if e.obsReg != nil {
			// Batch-granular routing accounting: every packet lands in
			// exactly one dispatched batch (barriers dispatch partial
			// ones), so charging c.N here conserves the total while
			// amortizing one atomic add over the whole batch.
			e.shardPkts[sh.idx].Add(uint64(c.N))
		}
		if c.Span.Sampled {
			// Complete the ingress half of the span before the hand-off
			// (nothing may touch the batch after the push) — push fills
			// the enqueue-evidence fields itself, pre-publication.
			sp = &c.Span
			sp.Batch = sh.batches
			sp.Rows = int32(c.N)
			sp.FillEnd = e.pkts
		}
	}
	if e.inline {
		sh.handle(s)
		s.flush = false
	} else {
		sh.cur = sh.in.push(sp)
	}
	e.pubPkts.Store(e.pkts)
	if e.frPend.Load() != nil && !e.inControl {
		// A pended anomaly forces a quiescing barrier, whose tail end
		// materializes it.
		e.barrier(false)
	}
}

// barrier dispatches every shard's current slot with the barrier
// riding in it — after the partial batch's rows, if any — and waits
// until every shard has drained its ring (optionally flushing shard
// state first). Every barrier is also an admin quiescence point: it
// lands in the router's flight recorder, materializes any pended
// anomaly (the shards are provably idle, so their event rings are safe
// to merge) and rebuilds the /status, /spans and /flightrecorder
// caches. The allocations this costs amortize over the packets between
// barriers, like the interval snapshots.
//
//superfe:coldpath
func (e *Engine) barrier(flush bool) {
	e.inControl = true
	var ack chan struct{}
	if !e.inline {
		ack = make(chan struct{}, len(e.shards))
	}
	for _, sh := range e.shards {
		sh.cur.ctl, sh.cur.flush = ack, flush
		e.dispatch(sh)
	}
	if !e.inline {
		for range e.shards {
			<-ack
		}
	}
	arg := int64(0)
	if flush {
		arg = 1
	}
	e.fr.Record(obs.Event{Kind: obs.FRBarrier, Clock: e.pkts, Arg: arg})
	e.materializePending()
	e.refreshAdmin()
	e.pubPkts.Store(e.pkts)
	e.inControl = false
}

// Drain blocks until every packet handed to Process so far has been
// fully processed by its shard, without evicting any state — the
// quiescence point for reading mid-trace stats. On a closed engine,
// whose workers have exited, it returns at once.
func (e *Engine) Drain() {
	e.quiesce()
}

// Flush drains all shards, evicts every resident group (switch cache
// and NIC state) and, in DeterministicMerge mode, emits the buffered
// vectors in shard order. It returns the first wire-verify error any
// shard recorded, if any.
func (e *Engine) Flush() error {
	if e.closed {
		return fmt.Errorf("core: engine is closed")
	}
	e.barrier(true)
	if e.opts.DeterministicMerge {
		for _, sh := range e.shards {
			for i := range sh.vecs {
				e.sink(sh.vecs[i])
			}
			sh.vecs = sh.vecs[:0]
		}
	}
	return e.Err()
}

// Close drains in-flight work and stops the workers. Unflushed state
// is discarded; call Flush first to emit it. Afterwards Process still
// returns the filter verdict but drops every batch it fills: nothing
// reaches the switch, the NIC or the sink, and no counter names the
// drop yet. Flush and SwapPlan return an error, and Drain and the
// stats reads return at once.
func (e *Engine) Close() error {
	if e.closed {
		return e.Err()
	}
	e.barrier(false)
	stopShards(e.shards)
	e.closed = true
	return e.Err()
}

// Err returns the first wire round-trip failure recorded by any
// shard, or the first anomaly-dump write failure. Only meaningful at
// a quiescence point (after Flush, Drain or Close), which Flush and
// Close already establish.
func (e *Engine) Err() error {
	for _, sh := range e.shards {
		if sh.fe.wireErr != nil {
			return sh.fe.wireErr
		}
	}
	return e.dumpErr
}

// Workers returns the shard count.
func (e *Engine) Workers() int { return len(e.shards) }

// Plan exposes the compiled plan shared by all shards.
func (e *Engine) Plan() *policy.Plan { return e.plan }

// SwitchStats sums the per-shard FE-Switch counters. Conservation
// quantities (packets, bytes, cells out) are the same at every shard
// count on the same trace; collision-dependent counters depend on the
// cache partitioning. Establishes a Drain barrier.
func (e *Engine) SwitchStats() switchsim.Stats {
	e.quiesce()
	var total switchsim.Stats
	for _, sh := range e.shards {
		total.Add(sh.fe.sw.Stats())
	}
	return total
}

// NICStats sums the per-shard FE-NIC counters. Establishes a Drain
// barrier.
func (e *Engine) NICStats() nicsim.RuntimeStats {
	e.quiesce()
	var total nicsim.RuntimeStats
	for _, sh := range e.shards {
		total.Add(sh.fe.nic.Stats())
	}
	return total
}

// FaultStats merges the per-shard fault-injection counters (zero when
// no fault plan is installed). Establishes a Drain barrier.
func (e *Engine) FaultStats() faults.Stats {
	e.quiesce()
	var total faults.Stats
	for _, sh := range e.shards {
		total.Add(sh.fe.inj.Stats())
	}
	return total
}

// NICStateBytes sums the live NIC state footprint across shards.
// Establishes a Drain barrier.
func (e *Engine) NICStateBytes() int {
	e.quiesce()
	total := 0
	for _, sh := range e.shards {
		total += sh.fe.nic.StateBytes()
	}
	return total
}

// Degraded reports whether any shard is currently in degraded
// (long-buffer shedding) mode.
func (e *Engine) Degraded() bool { return e.healthNow() >= obs.HealthDegraded }

func (e *Engine) quiesce() {
	if !e.closed {
		e.barrier(false)
	}
}

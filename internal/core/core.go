// Package core is SuperFE's top-level API: it wires a compiled
// feature-extraction policy through the FE-Switch and FE-NIC engines,
// reproducing the full workflow of Figure 1 in the paper — raw
// packets in, feature vectors out.
//
// Typical use:
//
//	pol := apps.Kitsune()                  // or build your own policy
//	fe, err := core.New(core.DefaultOptions(), pol, sink)
//	for i := range trace.Packets {
//		fe.Process(&trace.Packets[i])
//	}
//	fe.Flush()                             // drain remaining vectors
//
// There is one engine type (Engine, engine.go) with two constructors:
// New runs it inline on the caller's goroutine, NewParallel shards it
// across worker goroutines behind lock-free rings. This file holds the
// deployment options and the per-shard switch+NIC pair with its
// fault-injecting delivery channel.
//
// The Options struct exposes the switch cache sizing, NIC topology
// and optimization toggles so the experiment harness can run the
// paper's ablations against the same pipeline users run.
//
//superfe:deterministic
package core

import (
	"fmt"
	"sync/atomic"

	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/gpv"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/switchsim"
)

// Options configures a SuperFE deployment.
type Options struct {
	Switch switchsim.Config
	NIC    nicsim.Config
	// VerifyWire round-trips every switch→NIC message through the
	// binary codec, exactly as the hardware link would. Slower;
	// enabled in tests and available for debugging.
	VerifyWire bool
	// Obs configures the telemetry subsystem (internal/obs): a
	// per-engine metrics registry, logical-clock interval snapshots
	// and sampled flow-lifecycle tracing. Zero value = disabled, which
	// keeps the hot path byte-identical to the uninstrumented build.
	Obs obs.Options
	// Faults, when non-nil, enables the deterministic fault-injection
	// subsystem (internal/faults): wire faults on the switch→NIC
	// path, switch-side aging faults, and NIC-side stalls/allocation
	// failures, paired with the engine's graceful-degradation
	// machinery (bounded retry-with-backoff, frame quarantine, and a
	// per-shard degraded mode that sheds long-buffer work). Each
	// shard derives its own injector from the plan seed and shard
	// index, so identical seeds reproduce identical fault sequences.
	// Nil keeps every delivery on the reliable fast path.
	Faults *faults.Plan
	// FlightRec configures the always-on anomaly flight recorder (see
	// FlightRecConfig); the zero value enables it with defaults and no
	// dump directory.
	FlightRec FlightRecConfig
}

// DefaultOptions returns the paper's prototype configuration (§7).
func DefaultOptions() Options {
	return Options{
		Switch: switchsim.DefaultConfig(),
		NIC:    nicsim.DefaultConfig(),
	}
}

// pair is one switch+NIC pair — a shard of an Engine — plus the
// switch→NIC delivery channel between them, which is where wire
// verification, fault injection and graceful degradation live. It is
// owned by one goroutine (the shard worker, or the caller in the
// inline configuration); only health is read from outside.
type pair struct {
	verifyWire bool
	sw         *switchsim.Switch
	nic        *nicsim.Runtime
	enc        []byte // wire-verify scratch; one per pair, so shards never share
	wireErr    error

	// obs is the pair's telemetry pipeline (nil when disabled). pub
	// publishes the delivery edge's counters — the injector's
	// faults.Stats — at the batch boundaries the simulators publish
	// theirs at; degradedMode is 0/1 per shard, summed across shards at
	// snapshot into "shards currently degraded".
	obs          *obs.Pipeline
	pub          obs.Bound
	degradedMode obs.Gauge

	// Fault injection + graceful degradation (all nil/zero when
	// Options.Faults is nil). inj is this pair's injector; fenc the
	// scratch buffer for fault-mutated encodings; held the reorder hold
	// queue. The degraded-mode pressure controller accumulates stall
	// cycles over a window of delivered messages and toggles the
	// switch's long-buffer shedding with hysteresis.
	inj         *faults.Injector
	fenc        []byte
	held        []heldFrame
	degraded    bool
	winMsgs     int
	winStall    int64
	shedAtEnter uint64

	// fr is the pair's always-on flight ring (nil only when
	// FlightRecConfig.Disable); health publishes the current health
	// model state for the engine's live /status overlay.
	fr     *obs.Ring[obs.Event]
	health atomic.Uint32 // obs.Health
}

// heldFrame is one reorder-delayed frame: its wire encoding (the
// borrowed eviction message cannot outlive the sink call, so the
// bytes are the retained form) and a countdown in subsequently
// delivered frames.
type heldFrame struct {
	buf []byte
	due int
}

// newPair deploys a compiled plan on one switch+NIC pair. shard is the
// pair's index in its engine, so fault injectors draw independent
// per-shard streams and recorded events carry their origin; onAnomaly
// observes the pair's flight-ring triggers on the pair's own goroutine.
func newPair(opts Options, plan *policy.Plan, shard int, sink feature.Sink, onAnomaly func(obs.Anomaly)) (*pair, error) {
	// The switch's sink is fe.deliver, which hands each message to the
	// NIC runtime (or the wire codec) synchronously and never retains
	// it — so the switch can safely reuse its cell and message
	// buffers, keeping the steady-state per-packet path free of
	// allocations.
	opts.Switch.ZeroCopy = true
	// One telemetry pipeline per pair: the NIC, the switch and this
	// delivery edge each register their own series into its registry in
	// their constructors, in this fixed order whatever the plan or the
	// fault plan, so every shard builds the identical schema and
	// snapshots merge slot-for-slot.
	pipe := obs.NewPipeline(opts.Obs, shard)
	opts.Switch.Obs = pipe
	opts.NIC.Obs = pipe
	// The flight recorder is always on (unlike the opt-in telemetry):
	// its ring is fixed, recording is an indexed write, and the events
	// it sees — degradation, quarantine, backpressure — are rare by
	// construction. Both simulators of the pair record into it, which
	// is sound because the switch and NIC run synchronously on the one
	// goroutine that owns this pair.
	var fr *obs.Ring[obs.Event]
	if !opts.FlightRec.Disable {
		fr = obs.NewFlightRing(shard, onAnomaly)
		opts.Switch.FlightRec = fr
		opts.NIC.FlightRec = fr
	}
	var inj *faults.Injector
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("core: fault plan: %w", err)
		}
		inj = opts.Faults.NewInjector(shard)
		opts.Switch.Faults = inj
		opts.NIC.Faults = inj
	}
	fe := &pair{verifyWire: opts.VerifyWire, obs: pipe, inj: inj, fr: fr}
	var err error
	// NIC before switch: allocated the other way round, npod-mawi spends
	// ~6 % more CPU per packet (paired runs, PR 24).
	fe.nic, err = nicsim.NewRuntime(opts.NIC, plan, sink)
	if err != nil {
		return nil, fmt.Errorf("core: FE-NIC for %q: %w", plan.Policy.Name(), err)
	}
	fe.sw, err = switchsim.New(opts.Switch, plan.Switch, fe.deliver)
	if err != nil {
		return nil, fmt.Errorf("core: FE-Switch for %q: %w", plan.Policy.Name(), err)
	}
	if pipe != nil {
		fe.pub = pipe.Registry.Bind(inj.Rows())
		fe.degradedMode = pipe.Registry.Gauge("superfe_engine_degraded_mode",
			"shards currently in degraded (long-buffer shedding) mode")
		pipe.Registry.Seal()
	}
	return fe, nil
}

// deliver carries one message over the switch→NIC channel. With
// faults disabled this is the reliable fast path — one branch on top
// of the zero-allocation pipeline; with a fault plan installed every
// frame runs the injection gauntlet.
func (fe *pair) deliver(m gpv.Message) {
	if fe.inj == nil {
		fe.deliverDirect(m)
		return
	}
	fe.injectAndForward(m)
	fe.ageHeld()
	fe.tickDegrade()
}

// deliverDirect is the reliable transfer, optionally through the wire
// codec. A round-trip failure is recorded (first error wins, surfaced
// by Err) and the message is dropped, modelling a corrupted link
// transfer, rather than panicking mid-pipeline.
func (fe *pair) deliverDirect(m gpv.Message) {
	if fe.verifyWire {
		enc, err := m.Marshal(fe.enc[:0])
		fe.enc = enc
		if err != nil {
			fe.fail(fmt.Errorf("core: marshal: %w", err))
			return
		}
		dec, n, err := gpv.Unmarshal(fe.enc)
		if err != nil {
			fe.fail(fmt.Errorf("core: wire round-trip failed: %w", err))
			return
		}
		if n != len(fe.enc) {
			fe.fail(fmt.Errorf("core: wire round-trip consumed %d of %d bytes", n, len(fe.enc)))
			return
		}
		fe.nic.Process(dec)
		return
	}
	fe.nic.Process(m)
}

// injectAndForward decides and applies at most one wire fault for the
// frame, then hands it to the retrying forwarder. FG table updates
// ride the reliable control channel (§5.1 requires "synchronous
// updates" of the shared FG key table — faulting one would
// desynchronise every flow sharing the table, destroying the scoped
// isolation the differential tests prove) and out-of-scope MGPVs
// never consume injector randomness, so the fault sequence over the
// scoped flows is independent of the surrounding traffic.
func (fe *pair) injectAndForward(m gpv.Message) {
	if m.MGPV == nil || !fe.inj.InScope(m.MGPV.Hash) {
		fe.forward(m)
		return
	}
	switch kind := fe.inj.WireKind(); kind {
	case faults.KindNone:
		fe.forward(m)
	case faults.KindDrop:
		// Lost on the wire: the group's batched cells vanish.
	case faults.KindDup:
		// Delivered twice. Both deliveries are synchronous, so the
		// borrowed ZeroCopy message is still valid for the second.
		fe.forward(m)
		fe.forward(m)
	case faults.KindReorder:
		// Delayed past the next ReorderWindow frames. The borrowed
		// message cannot outlive this call, so the wire encoding (a
		// copy by construction) is the retained form.
		buf, err := m.Marshal(nil)
		if err != nil {
			fe.fail(fmt.Errorf("core: faults: marshal for reorder: %w", err))
			return
		}
		fe.held = append(fe.held, heldFrame{buf: buf, due: fe.inj.Plan().ReorderWindow})
	case faults.KindCorrupt, faults.KindTruncate:
		enc, err := m.Marshal(fe.fenc[:0])
		fe.fenc = enc
		if err != nil {
			fe.fail(fmt.Errorf("core: faults: marshal for %v: %w", kind, err))
			return
		}
		if kind == faults.KindCorrupt {
			fe.inj.Corrupt(enc)
		} else {
			enc = enc[:fe.inj.TruncateLen(len(enc))]
		}
		fe.forwardWire(enc)
	}
}

// forwardWire decodes a (possibly mutilated) wire frame and forwards
// the result, quarantining anything the decode or the key-hash
// integrity check rejects. The MGPV's switch-computed hash covers the
// CG tuple and granularity, so a frame whose group identity was
// damaged in flight cannot masquerade as another flow — it is counted
// and dropped, never merged into the wrong group's state. A frame
// whose kind byte mutated into an FG update is quarantined for the
// same reason: it would poison the shared key table.
func (fe *pair) forwardWire(b []byte) {
	dec, n, err := gpv.Unmarshal(b)
	if err != nil || n != len(b) || dec.MGPV == nil || !dec.MGPV.KeyHashOK() {
		fe.quarantine()
		return
	}
	fe.forward(dec)
}

// forward attempts the transfer, modelling NFP island stalls with a
// bounded retry-with-backoff loop: each busy hit charges
// exponentially growing stall cycles to the degradation window, and a
// frame that stays unlucky past MaxRetries is shed. FG updates skip
// the island path (control channel).
func (fe *pair) forward(m gpv.Message) {
	if m.MGPV != nil {
		maxRetries := fe.inj.Plan().MaxRetries
		attempt := 0
		for fe.inj.IslandBusy() {
			fe.winStall += stallCycles << attempt
			if attempt >= maxRetries {
				fe.inj.CountRetryDrop()
				fe.fr.Record(obs.Event{Kind: obs.FRRetryDrop, Clock: fe.frClock(), Arg: int64(attempt)})
				return
			}
			attempt++
			fe.inj.CountRetry()
			fe.fr.Record(obs.Event{Kind: obs.FRRetry, Clock: fe.frClock(), Arg: int64(attempt)})
		}
	}
	fe.deliverDirect(m)
}

// quarantine counts one rejected frame. Every quarantine lands in the
// flight recorder — the quarantine-rate spike trigger needs the full
// event stream, and quarantines are injected-fault-rate rare.
func (fe *pair) quarantine() {
	fe.inj.CountQuarantined()
	fe.fr.Record(obs.Event{Kind: obs.FRQuarantine, Clock: fe.frClock()})
}

// ageHeld advances the reorder hold queue by one delivered frame and
// releases everything that has served its window, through the same
// decode-and-check path as any wire frame (a held frame is our own
// encoding of an in-scope MGPV, so the checks pass).
func (fe *pair) ageHeld() {
	if len(fe.held) == 0 {
		return
	}
	n := 0
	for i := range fe.held {
		fe.held[i].due--
		if fe.held[i].due <= 0 {
			fe.forwardWire(fe.held[i].buf)
		} else {
			fe.held[n] = fe.held[i]
			n++
		}
	}
	fe.held = fe.held[:n]
}

// The pressure controller's fixed tuning: the modelled cost of one
// island-stall hit, the window it sums those costs over, and the
// hysteresis band that window's sum must leave to flip degraded mode.
const (
	// stallCycles is the modelled NFP cycle cost of one island-stall
	// hit; retry k charges stallCycles << k.
	stallCycles = 4096
	// degradeWindow is the controller window in delivered messages.
	degradeWindow = 4096
	// degradeEnterCycles and degradeExitCycles are the stall cycles
	// per window at or above which degraded mode is entered, and at or
	// below which it is left.
	degradeEnterCycles = 1 << 18
	degradeExitCycles  = 1 << 15
)

// tickDegrade runs the graceful-degradation pressure controller: a
// window of delivered messages accumulates island-stall cycles, and
// hysteresis thresholds flip the switch's long-buffer shedding. The
// controller sees only logical quantities (messages, modelled
// cycles), never a wall clock, so degraded-mode transitions are as
// reproducible as the faults that cause them.
func (fe *pair) tickDegrade() {
	fe.winMsgs++
	if fe.winMsgs < degradeWindow {
		return
	}
	if !fe.degraded && fe.winStall >= degradeEnterCycles {
		fe.setDegraded(true)
	} else if fe.degraded && fe.winStall <= degradeExitCycles {
		fe.setDegraded(false)
	}
	// Health refinement at window close: degraded escalates to shedding
	// once the switch has actually dropped cells this episode; a
	// non-degraded window with accumulated stalls is pressured — the
	// hysteresis has seen pressure but not enough to trip.
	switch {
	case fe.degraded:
		h := obs.HealthDegraded
		if fe.sw.Stats().ShedCells > fe.shedAtEnter {
			h = obs.HealthShedding
		}
		fe.health.Store(uint32(h))
	case fe.winStall > 0:
		fe.health.Store(uint32(obs.HealthPressured))
	default:
		fe.health.Store(uint32(obs.HealthHealthy))
	}
	fe.winMsgs, fe.winStall = 0, 0
}

// setDegraded flips degraded mode on the pair and its switch,
// records the transition in the flight recorder (entering fires the
// degraded-enter anomaly trigger) and updates the health state.
func (fe *pair) setDegraded(on bool) {
	fe.degraded = on
	fe.sw.SetDegraded(on)
	fe.inj.CountDegradedTransition()
	if on {
		fe.degradedMode.Set(1)
		fe.shedAtEnter = fe.sw.Stats().ShedCells
		fe.health.Store(uint32(obs.HealthDegraded))
		fe.fr.Record(obs.Event{Kind: obs.FRDegradedEnter, Clock: fe.frClock(), Arg: fe.winStall})
	} else {
		fe.degradedMode.Set(0)
		fe.health.Store(uint32(obs.HealthHealthy))
		fe.fr.Record(obs.Event{Kind: obs.FRDegradedExit, Clock: fe.frClock(), Arg: fe.winStall})
	}
}

// fail records the first wire error; the engine's Err surfaces it.
func (fe *pair) fail(err error) {
	if fe.wireErr == nil {
		fe.wireErr = err
	}
}

// frClock is the pair's logical clock for flight-recorder events:
// packets the switch has accepted. NIC-side events recorded by the
// runtime itself use NIC cells instead — clocks are per-domain and
// only ordered within one (Event.Seq orders a whole ring).
func (fe *pair) frClock() uint64 { return fe.sw.Stats().PktsIn }

// processColumns runs one columnar batch — keys, hashes, filter
// verdicts and metadata fields pre-computed by the engine's router —
// through the pair. The switch publishes its telemetry deltas at the
// end of the batch itself; the NIC's and the delivery edge's are
// published here, at the same boundary.
//
//superfe:hotpath
func (fe *pair) processColumns(c *switchsim.Columns) {
	fe.sw.ProcessColumns(c)
	fe.publishObs()
}

// publishObs publishes the NIC's and the delivery edge's telemetry;
// both are no-ops without it.
func (fe *pair) publishObs() {
	fe.nic.PublishObs()
	fe.pub.Publish()
}

// flush drains the switch cache and emits per-group feature vectors.
// Reorder-delayed frames are released before the NIC drains so no
// held metadata is lost at end of trace.
func (fe *pair) flush() {
	fe.sw.Flush()
	for i := range fe.held {
		fe.forwardWire(fe.held[i].buf)
	}
	fe.held = fe.held[:0]
	fe.nic.Flush()
	fe.publishObs()
	fe.fr.Record(obs.Event{Kind: obs.FRFlush, Clock: fe.frClock()})
}

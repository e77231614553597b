package polgen

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"

	"superfe/internal/baseline"
	"superfe/internal/core"
	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/planvet"
	"superfe/internal/policy"
	"superfe/internal/serve"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

// Outcome is the result of one fuzz case.
type Outcome struct {
	Spec     Spec
	Report   *planvet.Report // feasibility classification (nil on build error)
	Feasible bool
	// BuildErr is a policy that failed the builder — generated specs
	// are valid by construction, so any build error is a generator
	// bug and the harness treats it as a failure.
	BuildErr string
	// Overflow flags a plan planvet accepted whose raw switch
	// resource estimate still overflowed the simulator's clamp — the
	// two models disagreeing about the envelope.
	Overflow bool
	// Divergence names the first leg that broke its promise and how:
	// differing vectors or stats, an engine error, or a clamp tripped
	// on a plan proved saturation-free. Only set for feasible plans,
	// which are the only ones that run.
	Divergence string
	// Approx marks a case whose engines hit FG-table collisions
	// (FGOverwrites > 0). Collision misattribution is a documented
	// lossy approximation of the switch design, and the inline
	// engine's single FG table collides differently from the sharded
	// engine's per-shard tables — so the sharded and baseline legs are
	// skipped and the case counts as approximate, not failed.
	Approx bool
	// Vectors is the inline engine's output count, a cheap coverage
	// signal for logs.
	Vectors int
	// Legs maps each leg that was reached to its verdict: "held",
	// "skipped: <why>", or "vacuous: <why>" for a leg that compared
	// and agreed but whose mechanism never fired on this case.
	Legs map[string]string
	// Witnesses counts the confirmed planprove witnesses replayed
	// through a fresh engine; WitnessFailed names the first one that
	// did NOT trip a saturation clamp — a witness the prover promised
	// was replayable but the runtime disowned.
	Witnesses     int
	WitnessFailed string
}

// Failed reports whether the case should fail the fuzz run.
func (o *Outcome) Failed() bool {
	return o.BuildErr != "" || o.Overflow || o.Divergence != "" || o.WitnessFailed != ""
}

// Faulted reports whether the fault legs ran: the case's scoped plan
// against the clean reference. They share their skip conditions, so
// the inline one answers for both.
func (o *Outcome) Faulted() bool {
	v, ok := o.Legs["fault-inline"]
	return ok && !strings.HasPrefix(v, "skipped")
}

// RunOptions tunes the differential execution.
type RunOptions struct {
	// Flows overrides the synthesized trace's flow count; 0 means
	// the default (120 — roughly 10k packets of the campus mix,
	// small enough that a 200-case campaign stays in CI budget).
	Flows int
}

// Run executes one fuzz case end to end: build the policy, classify
// the plan against the spec's own hardware envelope, replay the
// prover's witnesses and — when feasible — hold every leg of the
// table to the inline reference on the spec's seeded campus trace.
func Run(spec Spec, opts RunOptions) *Outcome {
	out := &Outcome{Spec: spec}
	pol, err := spec.Build()
	if err != nil {
		out.BuildErr = err.Error()
		return out
	}
	plan, err := policy.Compile(pol)
	if err != nil {
		out.BuildErr = err.Error()
		return out
	}
	fplan, err := spec.FaultPlan()
	if err != nil {
		out.BuildErr = err.Error()
		return out
	}
	out.Report = planvet.Check(spec.Model(), spec.Name, plan)
	out.Feasible = out.Report.Feasible()
	if !out.Feasible {
		return out
	}

	// planvet accepted the plan; the simulator's own resource
	// estimate must agree, or the clamp silently hides an envelope
	// violation the vetter should have caught.
	if switchsim.EstimateResources(spec.SwitchConfig(), plan.Switch).Overflow {
		out.Overflow = true
		return out
	}

	// Witness soundness: every confirmed planprove witness promises a
	// packet sequence that replays to an actual clamp trip. Replay
	// each through a fresh engine and hold the prover to it.
	proof := out.Report.Proof
	out.Witnesses, out.WitnessFailed = replayWitnesses(spec, pol, proof)
	if out.WitnessFailed != "" {
		return out
	}

	cfg := trace.CampusConfig
	cfg.Flows = opts.Flows
	if cfg.Flows <= 0 {
		cfg.Flows = 120
	}
	c := &dcase{
		pol:     pol,
		plan:    plan,
		opts:    core.Options{Switch: spec.SwitchConfig(), NIC: spec.NICConfig()},
		tr:      trace.Generate(cfg, spec.TraceSeed),
		workers: min(max(spec.Workers, 2), 4),
		rings:   []ring{{64, 2}},
		faults:  fplan,
		clean:   proof.Clean(),
	}
	c.run(out, legs)
	return out
}

// dcase is one differential case: a policy deployed at one hardware
// envelope, one trace, and optionally a fault plan.
type dcase struct {
	pol  *policy.Policy
	plan *policy.Plan
	// opts is the device envelope every engine leg deploys at.
	opts core.Options
	tr   *trace.Trace
	// workers is the sharded leg's shard count, 2–4; rings are its
	// (batch, depth) configurations, the first of which also runs
	// with a streaming sink.
	workers int
	rings   []ring
	// faults drives the obs and fault legs; nil skips both.
	faults *faults.Plan
	// clean: planprove proved the plan saturation-free, so no run
	// whose faults leave payloads intact may trip a clamp.
	clean bool
	// served: the case deploys at default device options, the only
	// ones a serve tenant takes, so the serve leg runs.
	served bool
}

// ring is one sharded configuration: rows per batch and batches in
// flight per shard.
type ring struct{ batch, depth int }

// leg is one engine configuration held to a promise relative to the
// inline reference. run returns the leg's verdict (see Outcome.Legs)
// or, when the promise broke, the divergence.
type leg struct {
	name string
	// skipFG: the promise does not hold under FG-table overwrites, so
	// the leg is skipped on an approximate case.
	skipFG bool
	run    func(*runner) (verdict, divergence string)
}

const held = "held"

// legs is the differential table, in the order a case runs it. The
// inline reference runs first, with every switch→NIC message
// round-tripped through the wire codec: random policies reach MGPV
// layouts the unit tests never enumerate.
//   - one-worker: the ring hand-off at one shard and a batch size
//     that shares no boundary with the reference's 256 rows — the same
//     cache geometry, so the exact vector sequence and equal switch
//     and NIC stats, collision counters included;
//   - sharded: 2–4 workers at each (batch, depth), deterministic
//     merge, then a streaming sink — the vector multiset, the filter
//     decisions and the conservation stats summed over shards, and the
//     exact sequence across the configurations;
//   - obs-inline, obs-sharded: telemetry and flight recorder on
//     against off under the fault plan — the exact sequence, and a
//     scrape that reads what the stats read;
//   - fault-inline, fault-sharded: out-of-scope groups bit-identical
//     to the clean reference under a scoped plan;
//   - baseline: baseline.Extractor, which shares no router, switch or
//     NIC code with the engine — the vector multiset;
//   - serve: one tenant at one worker behind serve.Config.Resolve,
//     fed over TCP loopback by one ingest connection and read back by
//     one subscriber — the exact sequence.
var legs = []leg{
	{"one-worker", false, oneWorker},
	{"sharded", true, sharded},
	{"obs-inline", false, func(r *runner) (string, string) { return r.obs(0) }},
	{"obs-sharded", false, func(r *runner) (string, string) { return r.obs(r.c.workers) }},
	{"fault-inline", false, func(r *runner) (string, string) { return r.fault(0) }},
	{"fault-sharded", false, func(r *runner) (string, string) { return r.fault(r.c.workers) }},
	{"baseline", true, baselineLeg},
	{"serve", false, serveLeg},
}

// runner is one case's pass through the table.
type runner struct {
	c   *dcase
	ref engineRun
	out *Outcome
}

// run holds each leg to the inline reference, stopping at the first
// divergence.
func (c *dcase) run(out *Outcome, legs []leg) {
	r := &runner{c: c, out: out}
	ref := core.ParallelOptions{Options: c.opts}
	ref.VerifyWire = true
	var err error
	if r.ref, err = r.drive(ref); err != nil {
		out.Divergence = "inline: " + err.Error()
		return
	}
	out.Vectors = len(r.ref.vecs)
	out.Approx = r.ref.sw.FGOverwrites > 0
	out.Legs = map[string]string{}
	for _, l := range legs {
		if l.skipFG && out.Approx {
			out.Legs[l.name] = "skipped: FG-table overwrites"
			continue
		}
		verdict, div := l.run(r)
		if div != "" {
			out.Divergence = l.name + ": " + div
			return
		}
		out.Legs[l.name] = verdict
	}
}

// engineRun is what one engine pass leaves for the legs to compare.
type engineRun struct {
	vecs     []feature.Vector
	selected int // packets Process let through the filter
	sw       switchsim.Stats
	nic      nicsim.RuntimeStats
	faults   faults.Stats
	// snaps and spans count the telemetry's interval snapshots and
	// sampled batch spans.
	snaps, spans int
}

// corrupting are the fault kinds whose decoded garbage may
// legitimately saturate: quarantine, not the prover, owns those.
var corrupting = faults.Set(0).With(faults.KindCorrupt).With(faults.KindTruncate)

// drive deploys the case's plan at p, replays the trace, flushes and
// closes the engine. Workers 0 is the inline configuration. Beyond
// engine errors it fails a run that emits a vector after Flush
// returned, that trips a saturation clamp on a plan proved free of
// them (unless its faults corrupt payloads), or whose telemetry
// scrape disagrees with its stats.
func (r *runner) drive(p core.ParallelOptions) (engineRun, error) {
	var run engineRun
	flushed, late := false, 0
	collect := feature.Collect(&run.vecs)
	fe, err := core.NewFromPlan(p, r.c.plan, func(v feature.Vector) {
		if flushed {
			late++
		}
		collect(v)
	})
	if err != nil {
		return run, err
	}
	tr := r.c.tr
	for i := range tr.Packets {
		if fe.Process(&tr.Packets[i]) {
			run.selected++
		}
	}
	ferr := fe.Flush()
	flushed = true
	run.sw, run.nic, run.faults = fe.SwitchStats(), fe.NICStats(), fe.FaultStats()
	var scrape string
	if p.Obs.Enabled {
		run.snaps, run.spans = len(fe.ObsSeries().Snaps), len(fe.ObsSpans())
		scrape = scrapeMismatch(fe.ObsScrape(), &run, max(p.Workers, 1))
	}
	if err := fe.Close(); err != nil {
		return run, err
	}
	switch {
	case ferr != nil:
		return run, ferr
	case late > 0:
		return run, fmt.Errorf("%d vector(s) emitted after Flush returned", late)
	case scrape != "":
		return run, fmt.Errorf("telemetry scrape: %s", scrape)
	case r.c.clean && (p.Faults == nil || p.Faults.Kinds&corrupting == 0) && run.tripped() > 0:
		return run, fmt.Errorf("proved saturation-free but tripped %d clamp(s) %s", run.tripped(), run.clampCounts())
	}
	return run, nil
}

// scrapeMismatch names the first counter whose merged series does not
// read its stats word, a live-group gauge that does not read the NIC's
// count, or shard routing counters that do not sum to the packets
// routed.
func scrapeMismatch(snap *obs.Snapshot, run *engineRun, shards int) string {
	for _, rows := range [][]obs.Row{run.sw.Rows(), run.nic.Rows(), run.faults.Rows()} {
		for _, row := range rows {
			var labels []string
			for _, l := range row.Labels {
				labels = append(labels, l.Value)
			}
			if v, ok := snap.Value(row.Name, labels...); !ok || v != *row.Word {
				return fmt.Sprintf("%s%v scrapes %d (registered=%v), its stats word reads %d", row.Name, labels, v, ok, *row.Word)
			}
		}
	}
	if v, _ := snap.Value("superfe_nic_groups_live"); v != uint64(run.nic.GroupsLive) {
		return fmt.Sprintf("superfe_nic_groups_live scrapes %d, the NIC holds %d groups", v, run.nic.GroupsLive)
	}
	var routed uint64
	for i := 0; i < shards; i++ {
		v, _ := snap.Value("superfe_engine_shard_pkts_total", strconv.Itoa(i))
		routed += v
	}
	if routed != run.sw.PktsIn {
		return fmt.Sprintf("shard routing counters sum to %d, %d packets routed", routed, run.sw.PktsIn)
	}
	return ""
}

// tripped sums the four saturation counters. The runtime clamps with
// the narrowest contract across an op's reducers, so any value
// planprove flags for any single reducer lands in one of these.
func (r *engineRun) tripped() uint64 {
	return r.sw.CellSaturations + r.sw.FGIndexClips + r.nic.RangeClamps + r.nic.SatInputs
}

// clampCounts renders the four saturation counters for failure logs.
func (r *engineRun) clampCounts() string {
	return fmt.Sprintf("[cellsat=%d fgclip=%d rangeclamp=%d satinput=%d]",
		r.sw.CellSaturations, r.sw.FGIndexClips, r.nic.RangeClamps, r.nic.SatInputs)
}

// oneWorker: the configurations share cache geometry and hash→slot
// mapping, so even collision-dependent output and counters match.
func oneWorker(r *runner) (string, string) {
	run, err := r.drive(core.ParallelOptions{Options: r.c.opts, Workers: 1, BatchSize: 37, DeterministicMerge: true})
	switch {
	case err != nil:
		return "", err.Error()
	case run.selected != r.ref.selected:
		return "", fmt.Sprintf("filter decisions: inline %d, one worker %d", r.ref.selected, run.selected)
	case run.sw != r.ref.sw:
		return "", fmt.Sprintf("switch stats: inline %+v, one worker %+v", r.ref.sw, run.sw)
	case run.nic != r.ref.nic:
		return "", fmt.Sprintf("NIC stats: inline %+v, one worker %+v", r.ref.nic, run.nic)
	}
	return held, feature.Diff("inline", r.ref.vecs, "one worker", run.vecs, true)
}

// sharded: MGPVs of one CG group always land on one shard, so the
// per-group cell streams, and with them the vectors, are the inline
// engine's; batch boundaries, cache partitioning and FG tables are not.
func sharded(r *runner) (string, string) {
	c := r.c
	var first []feature.Vector
	var firstName string
	for i, g := range append(c.rings[:len(c.rings):len(c.rings)], c.rings[0]) {
		stream := i == len(c.rings)
		name := fmt.Sprintf("%d workers at batch %d, depth %d", c.workers, g.batch, g.depth)
		if stream {
			name += ", streaming"
		}
		run, err := r.drive(core.ParallelOptions{Options: c.opts, Workers: c.workers,
			BatchSize: g.batch, QueueDepth: g.depth, DeterministicMerge: !stream})
		switch {
		case err != nil:
			return "", name + ": " + err.Error()
		case run.sw.FGOverwrites > 0:
			r.out.Approx = true
			return "skipped: FG-table overwrites", ""
		}
		if d := conservation(r.ref, run); d != "" {
			return "", name + ": " + d
		}
		d := feature.Diff("inline", r.ref.vecs, name, run.vecs, false)
		switch {
		case i == 0:
			first, firstName = run.vecs, name
		case !stream:
			// Deterministic merge: one sequence, whatever the batching.
			d = feature.Diff(firstName, first, name, run.vecs, true)
		}
		if d != "" {
			return "", d
		}
	}
	return held, ""
}

// conservation compares the counters sharding must not change: filter
// decisions, packets and bytes in, packets filtered, cells out of the
// switch and into the NIC, and vectors.
func conservation(ref, run engineRun) string {
	a, b := ref.sw, run.sw
	switch {
	case ref.selected != run.selected:
		return fmt.Sprintf("filter decisions: inline %d, sharded %d", ref.selected, run.selected)
	case a.PktsIn != b.PktsIn || a.BytesIn != b.BytesIn || a.PktsFiltered != b.PktsFiltered || a.CellsOut != b.CellsOut:
		return fmt.Sprintf("switch stats: inline %+v, sharded %+v", a, b)
	case ref.nic.Cells != run.nic.Cells || ref.nic.Vectors != run.nic.Vectors:
		return fmt.Sprintf("NIC stats: inline cells=%d vectors=%d, sharded cells=%d vectors=%d",
			ref.nic.Cells, ref.nic.Vectors, run.nic.Cells, run.nic.Vectors)
	}
	return ""
}

// obs runs the configuration at workers under the case's fault plan
// with telemetry and the flight recorder off, then on: observers must
// never touch the data. The plan exercises the quarantine, retry and
// degradation paths the flight recorder hooks; the leg is vacuous
// unless it injected, the recorder took an interval snapshot and, when
// sharded, a batch span was sampled.
func (r *runner) obs(workers int) (string, string) {
	if r.c.faults == nil {
		return "skipped: no fault plan", ""
	}
	p := core.ParallelOptions{Options: r.c.opts, Workers: workers, DeterministicMerge: true}
	p.Faults = r.c.faults
	p.FlightRec.Disable = true
	off, err := r.drive(p)
	if err != nil {
		return "", "telemetry off: " + err.Error()
	}
	p.FlightRec.Disable = false
	p.Obs.Enabled = true
	on, err := r.drive(p)
	if err != nil {
		return "", "telemetry on: " + err.Error()
	}
	if d := feature.Diff("telemetry off", off.vecs, "telemetry on", on.vecs, true); d != "" {
		return "", d
	}
	switch {
	case injected(on.faults) == 0:
		return "vacuous: fault plan injected nothing", ""
	case on.snaps == 0:
		return "vacuous: no interval snapshot fired", ""
	case workers > 0 && on.spans == 0:
		return "vacuous: no spans sampled", ""
	}
	return held, ""
}

// injected sums a run's injected-fault counters across kinds.
func injected(s faults.Stats) uint64 {
	var n uint64
	for _, k := range s.Injected {
		n += k
	}
	return n
}

// shardWide are the fault kinds that ignore a plan's scope: they
// perturb every group on the shard and would void the comparison.
var shardWide = faults.Set(0).With(faults.KindAgingStall).With(faults.KindIslandStall)

// fault re-runs the configuration at workers under the case's scoped
// fault plan: a fault may damage only the groups it belongs to, so
// every group hashing outside the scope emits what the clean reference
// emitted, bit for bit. Each shard derives its own injector, so a
// sharded run faults other frames than the inline one. The leg is
// vacuous unless the run injected, some group fell outside the scope
// and some group inside it changed. Only exact for single-granularity
// plans: multi-granularity FG updates ride the reliable channel and
// are shared across flows.
func (r *runner) fault(workers int) (string, string) {
	fp := r.c.faults
	switch {
	case fp == nil:
		return "skipped: no fault plan", ""
	case len(r.c.plan.Switch.Chain) > 1:
		return "skipped: multi-granularity plan", ""
	case fp.Kinds&shardWide != 0:
		return "skipped: shard-wide fault kinds", ""
	}
	name := fmt.Sprintf("faulted at %d workers", workers)
	p := core.ParallelOptions{Options: r.c.opts, Workers: workers, DeterministicMerge: true}
	p.Faults = fp
	run, err := r.drive(p)
	if err != nil {
		return "", name + ": " + err.Error()
	}
	cleanIn, cleanOut := split(r.ref.vecs, fp)
	faultIn, faultOut := split(run.vecs, fp)
	if d := feature.Diff("clean", cleanOut, name, faultOut, false); d != "" {
		return "", "out of scope: " + d
	}
	switch {
	case injected(run.faults) == 0:
		return "vacuous: fault plan injected nothing", ""
	case len(cleanOut) == 0:
		return "vacuous: no group outside the fault scope", ""
	case feature.Diff("clean", cleanIn, name, faultIn, false) == "":
		return "vacuous: no group inside the fault scope changed", ""
	}
	return held, ""
}

// split partitions vectors by whether their group's CG hash falls in
// the plan's scope.
func split(vecs []feature.Vector, fp *faults.Plan) (in, out []feature.Vector) {
	scope := fp.NewInjector(0)
	for _, v := range vecs {
		if scope.InScope(flowkey.HashKey(v.Key)) {
			in = append(in, v)
		} else {
			out = append(out, v)
		}
	}
	return in, out
}

// baselineLeg: the software extractor interprets the policy per packet
// with map-keyed groups and the reference streaming reducers, so a bug
// in the router, the switch, the NIC's op table or its kernels shows.
func baselineLeg(r *runner) (string, string) {
	var vecs []feature.Vector
	ext, err := baseline.New(r.c.pol, feature.Collect(&vecs))
	if err != nil {
		return "", err.Error()
	}
	for i := range r.c.tr.Packets {
		ext.Process(&r.c.tr.Packets[i])
	}
	ext.Flush()
	return held, feature.Diff("inline", r.ref.vecs, "baseline", vecs, false)
}

// serveLeg deploys the policy as a tenant of a resident server and
// extracts the trace through the service transport: packet frames in,
// vector frames out, with the tenant's always-on telemetry.
func serveLeg(r *runner) (string, string) {
	if !r.c.served {
		return "skipped: a tenant deploys only at default device options", ""
	}
	pol := r.c.pol
	srv := serve.New(serve.Config{Resolve: func(string) (*policy.Policy, error) { return pol, nil }})
	defer srv.Shutdown()
	ten, report, err := srv.StartTenant("leg", pol.Name(), 1)
	if err != nil {
		return "", fmt.Sprintf("start tenant: %v\n%s", err, report)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err.Error()
	}
	//superfe:goroutine-ok joined by srv.Shutdown, which closes ln
	go srv.Serve(ln)
	sub, err := serve.Dial("tcp", ln.Addr().String(), "leg")
	if err != nil {
		return "", err.Error()
	}
	defer sub.Close()
	if err := sub.Subscribe(); err != nil {
		return "", err.Error()
	}
	var (
		mu   sync.Mutex
		read = sync.NewCond(&mu)
		vecs []feature.Vector
		done bool
	)
	//superfe:goroutine-ok ends when srv.Shutdown closes the subscriber's connection
	go func() {
		for {
			v, err := sub.NextVector()
			mu.Lock()
			if err == nil {
				v.Values = append([]float64(nil), v.Values...)
				vecs = append(vecs, v)
			}
			done = err != nil
			read.Broadcast()
			mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	in, err := serve.Dial("tcp", ln.Addr().String(), "leg")
	if err != nil {
		return "", err.Error()
	}
	defer in.Close()
	if err := in.SendPackets(r.c.tr.Packets); err != nil {
		return "", err.Error()
	}
	// Flush returns once every vector is written to the subscriber. Read
	// exactly those: Shutdown's drain would emit the kept groups again.
	if err := in.Flush(); err != nil {
		return "", err.Error()
	}
	n := int(ten.Info().Egress.VectorsWritten)
	mu.Lock()
	for len(vecs) < n && !done {
		read.Wait()
	}
	got := vecs[:min(n, len(vecs))]
	mu.Unlock()
	return held, feature.Diff("inline", r.ref.vecs, "serve", got, true)
}

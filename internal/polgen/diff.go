package polgen

import (
	"fmt"
	"sort"
	"strconv"

	"superfe/internal/baseline"
	"superfe/internal/core"
	"superfe/internal/feature"
	"superfe/internal/nicsim"
	"superfe/internal/planvet"
	"superfe/internal/policy"
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
	// Divergence names the first engine pair whose outputs differ
	// (empty when the differential held). Only set for feasible
	// plans, which are the only ones that run.
	Divergence string
	// Approx marks a case whose engines hit FG-table collisions
	// (FGOverwrites > 0). Collision misattribution is a documented
	// lossy approximation of the switch design, and the sequential
	// engine's single FG table collides differently from the parallel
	// engine's per-shard tables — so byte-identical comparison is
	// skipped and the case counts as approximate, not failed.
	Approx bool
	// Vectors is the sequential engine's output count, a cheap
	// coverage signal for logs.
	Vectors int
	// Witnesses counts the confirmed planprove witnesses replayed
	// through a fresh engine; WitnessFailed names the first one that
	// did NOT trip a saturation clamp — a witness the prover promised
	// was replayable but the runtime disowned.
	Witnesses     int
	WitnessFailed string
	// Soundness names a clean-proved plan that still tripped a
	// simulator saturation clamp: the abstract interpreter claimed a
	// range the runtime escaped, which is exactly the bug class the
	// cross-check exists to catch.
	Soundness string
	// Faulted marks that the spec's fault campaign ran;
	// FaultViolation names a broken fault-pass invariant (out-of-scope
	// drift, or a clamp trip on a clean-proved plan under
	// non-corrupting faults).
	Faulted        bool
	FaultViolation string
}

// Failed reports whether the case should fail the fuzz run.
func (o *Outcome) Failed() bool {
	return o.BuildErr != "" || o.Overflow || o.Divergence != "" ||
		o.WitnessFailed != "" || o.Soundness != "" || o.FaultViolation != ""
}

// RunOptions tunes the differential execution.
type RunOptions struct {
	// Flows overrides the synthesized trace's flow count; 0 means
	// the default (120 — roughly 10k packets of the campus mix,
	// small enough that a 200-case campaign stays in CI budget).
	Flows int
}

// Run executes one fuzz case end to end: build the policy, classify
// the plan against the spec's own hardware envelope, and — when
// feasible — run three legs on the same seeded trace and compare
// their outputs byte for byte. The first two are configurations of
// the one core.Engine chosen to share as little as it allows: inline
// (one shard, 256-row batches, every message through the wire codec)
// against 2–4 ring-fed workers at 64-row batches (different batch
// boundaries, cache partitioning and FG tables). Neither can catch a
// bug both inherit from the shared router, switch or NIC code. The
// third leg, baseline.Extractor, bypasses the router and the switch
// but wraps nicsim.NewRuntime, so it shares the whole NIC: a NIC bug
// is invisible to all three legs.
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
	tr := trace.Generate(cfg, spec.TraceSeed)

	engineOpts := core.Options{
		Switch: spec.SwitchConfig(),
		NIC:    spec.NICConfig(),
		// Round-trip every switch→NIC message through the wire codec
		// on the sequential run: random policies reach MGPV layouts
		// the unit tests never enumerate.
		VerifyWire: true,
	}

	seq, err := runSequential(engineOpts, pol, tr)
	if err != nil {
		out.Divergence = "sequential: " + err.Error()
		return out
	}
	out.Vectors = len(seq.vecs)

	par, err := runParallel(engineOpts, spec, pol, tr)
	if err != nil {
		out.Divergence = "parallel: " + err.Error()
		return out
	}

	// Clamp soundness: a plan proved saturation-free must never trip
	// a simulator clamp, on either engine. (Valid even under FG
	// collisions — misattributed cells still carry in-range values.)
	if proof.Clean() {
		if n := seq.tripped() + par.tripped(); n > 0 {
			out.Soundness = fmt.Sprintf(
				"proved saturation-free but the engines tripped %d clamp(s): sequential %s, parallel %s",
				n, seq.clampCounts(), par.clampCounts())
			return out
		}
	}

	if seq.sw.FGOverwrites > 0 || par.sw.FGOverwrites > 0 {
		// FG-table collisions occurred; the engines legitimately
		// disagree (single table vs per-shard tables collide on
		// different keys), so the byte-identical contract is off.
		out.Approx = true
		return out
	}
	if d := diffVectors("sequential", seq.vecs, "parallel", par.vecs); d != "" {
		out.Divergence = d
		return out
	}

	sw, err := runBaseline(pol, tr)
	if err != nil {
		out.Divergence = "baseline: " + err.Error()
		return out
	}
	if d := diffVectors("sequential", seq.vecs, "baseline", sw); d != "" {
		out.Divergence = d
		return out
	}

	// Fault campaign: re-run the sequential engine under the spec's
	// fault plan and assert the isolation and soundness contracts.
	// Only exact for single-granularity plans (see Spec.Fault).
	if fplan != nil && len(plan.Switch.Chain) == 1 {
		out.Faulted = true
		out.FaultViolation = runFaultPass(engineOpts, fplan, pol, tr, proof, seq)
	}
	return out
}

// engineRun bundles one engine pass's outputs with the saturation
// counters the soundness cross-check reads.
type engineRun struct {
	vecs []feature.Vector
	sw   switchsim.Stats
	nic  nicsim.RuntimeStats
}

// tripped sums the four saturation counters. The runtime clamps with
// the narrowest contract across an op's reducers, so any value
// planprove flags for any single reducer lands in one of these.
func (r *engineRun) tripped() uint64 {
	return r.sw.CellSaturations + r.sw.FGIndexClips + r.nic.RangeClamps + r.nic.SatInputs
}

// runEngine feeds the trace through a deployed engine and collects
// its merged stats; vectors land in the sink the engine was built on.
func runEngine(fe *core.Engine, run *engineRun, tr *trace.Trace) error {
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	ferr := fe.Flush()
	run.sw, run.nic = fe.SwitchStats(), fe.NICStats()
	if err := fe.Close(); err != nil {
		return err
	}
	return ferr
}

// runSequential is the inline leg: one shard on the caller's
// goroutine, 256-row batches, opts as given (the differential passes
// VerifyWire).
func runSequential(opts core.Options, pol *policy.Policy, tr *trace.Trace) (engineRun, error) {
	var run engineRun
	fe, err := core.New(opts, pol, feature.Collect(&run.vecs))
	if err != nil {
		return run, err
	}
	err = runEngine(fe, &run, tr)
	return run, err
}

// runParallel is the sharded leg: 2–4 worker goroutines behind
// two-deep rings of 64-row batches, so its batch boundaries, cache
// partitioning and FG tables all differ from the inline leg's.
func runParallel(opts core.Options, spec Spec, pol *policy.Policy, tr *trace.Trace) (engineRun, error) {
	workers := spec.Workers
	if workers < 2 {
		workers = 2
	}
	if workers > 4 {
		workers = 4
	}
	popts := core.ParallelOptions{
		Options:            opts,
		Workers:            workers,
		BatchSize:          64,
		QueueDepth:         2,
		DeterministicMerge: true,
	}
	// The wire round-trip already ran on the sequential pass; skip it
	// here so a campaign's cost stays linear in trace size.
	popts.Options.VerifyWire = false
	var run engineRun
	fe, err := core.NewParallel(popts, pol, feature.Collect(&run.vecs))
	if err != nil {
		return run, err
	}
	err = runEngine(fe, &run, tr)
	return run, err
}

func runBaseline(pol *policy.Policy, tr *trace.Trace) ([]feature.Vector, error) {
	var vecs []feature.Vector
	ext, err := baseline.New(pol, feature.Collect(&vecs))
	if err != nil {
		return nil, err
	}
	for i := range tr.Packets {
		ext.Process(&tr.Packets[i])
	}
	ext.Flush()
	return vecs, nil
}

// canonical renders a vector set as a sorted multiset of
// key|hex-float strings: byte-identical values compare equal, any
// bit difference — including NaN payloads and signed zeros that
// epsilon comparisons wave through — does not.
func canonical(vecs []feature.Vector) []string {
	out := make([]string, 0, len(vecs))
	for _, v := range vecs {
		s := v.Key.String()
		for _, x := range v.Values {
			s += "|" + strconv.FormatFloat(x, 'x', -1, 64)
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// diffVectors compares two engines' outputs as multisets and, on
// mismatch, names the first differing entry so the log pinpoints the
// group rather than just "outputs differ".
func diffVectors(an string, a []feature.Vector, bn string, b []feature.Vector) string {
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		return fmt.Sprintf("%s emitted %d vectors, %s emitted %d", an, len(ca), bn, len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return fmt.Sprintf("%s and %s disagree at vector %d:\n  %s: %s\n  %s: %s",
				an, bn, i, an, ca[i], bn, cb[i])
		}
	}
	return ""
}

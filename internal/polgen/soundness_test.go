package polgen

import (
	"strings"
	"testing"

	"superfe/internal/planprove"
)

// unsafeSpecs are hand-seeded plans the abstract interpreter must
// reject with a confirmed value-range witness, and whose witnesses
// must replay to an actual saturation clamp on the simulators — the
// acceptance set for the witness half of the soundness cross-check.
var unsafeSpecs = []struct {
	name  string
	class string // a finding class the proof must contain, confirmed
	spec  Spec
}{
	{
		// Inter-packet gaps range over [0, 2^32) but the 64×8 histogram
		// only covers [0, 512): the tail clamps into the last bin.
		name:  "hist-over-ipt-tail",
		class: planprove.ClassHistRange,
		spec: Spec{
			Name: "unsafe-hist-ipt", TraceSeed: 7, Workers: 2,
			Blocks: []BlockSpec{{
				Gran:    "flow",
				Maps:    []MapSpec{{Dst: "b0m0", Func: "ipt", Src: "tstamp"}},
				Reduces: []ReduceSpec{{Src: "b0m0", Reducers: []ReducerSpec{{Func: "hist", BinWidth: 8, Bins: 64}}}},
			}},
		},
	},
	{
		// Directional size at host granularity goes negative for the
		// backward direction; every negative input clamps into bin 0.
		name:  "direction-bin-zero",
		class: planprove.ClassHistRange,
		spec: Spec{
			Name: "unsafe-direction", TraceSeed: 11, Workers: 2,
			Blocks: []BlockSpec{{
				Gran:    "host",
				Maps:    []MapSpec{{Dst: "b0m0", Func: "direction", Src: "size"}},
				Reduces: []ReduceSpec{{Src: "b0m0", Reducers: []ReducerSpec{{Func: "hist", BinWidth: 4, Bins: 64}}}},
			}},
		},
	},
	{
		// f_speed multiplies by 1e9: even a tiny size over a 1ns gap
		// blows past the 32-bit fixed-point input lane.
		name:  "speed-fixed-point",
		class: planprove.ClassFixedPoint,
		spec: Spec{
			Name: "unsafe-speed", TraceSeed: 13, Workers: 2,
			Blocks: []BlockSpec{{
				Gran:    "flow",
				Maps:    []MapSpec{{Dst: "b0m0", Func: "speed", Src: "size"}},
				Reduces: []ReduceSpec{{Src: "b0m0", Reducers: []ReducerSpec{{Func: "mean"}}}},
			}},
		},
	},
	{
		// Raw nanosecond timestamps feed a scalar reducer directly:
		// anything past ~2.1s exceeds the fixed-point input lane.
		name:  "tstamp-fixed-point",
		class: planprove.ClassFixedPoint,
		spec: Spec{
			Name: "unsafe-tstamp", TraceSeed: 17, Workers: 2,
			Blocks: []BlockSpec{{
				Gran:    "flow",
				Reduces: []ReduceSpec{{Src: "tstamp", Reducers: []ReducerSpec{{Func: "var"}}}},
			}},
		},
	},
	{
		// Percentile rides the histogram family: a 32×64 sketch covers
		// [0, 2048) while raw timestamps range over [0, +inf).
		name:  "percent-over-tstamp",
		class: planprove.ClassHistRange,
		spec: Spec{
			Name: "unsafe-percent", TraceSeed: 19, Workers: 2,
			Blocks: []BlockSpec{{
				Gran:    "flow",
				Reduces: []ReduceSpec{{Src: "tstamp", Reducers: []ReducerSpec{{Func: "percent", BinWidth: 64, Bins: 32, Quantile: 0.5}}}},
			}},
		},
	},
}

// TestSeededUnsafePlansReplay is the witness acceptance criterion:
// each seeded unsafe plan is rejected with at least one confirmed
// value-range witness of the expected class, and Run's replay pass
// drives every confirmed witness to an actual saturation clamp.
func TestSeededUnsafePlansReplay(t *testing.T) {
	for _, tc := range unsafeSpecs {
		t.Run(tc.name, func(t *testing.T) {
			out := Run(tc.spec, RunOptions{Flows: 40})
			if out.BuildErr != "" {
				t.Fatalf("spec does not build: %s", out.BuildErr)
			}
			if !out.Feasible {
				t.Fatalf("spec must be resource-feasible to exercise the replay pass:\n%s", out.Report)
			}
			proof := out.Report.Proof
			if proof.Clean() {
				t.Fatalf("prover accepted a seeded-unsafe plan:\n%s", proof)
			}
			confirmed := false
			for _, f := range proof.Findings {
				if f.Class == tc.class && f.Sev >= planprove.SevWarn && f.Witness != nil && f.Witness.Confirmed {
					confirmed = true
					break
				}
			}
			if !confirmed {
				t.Fatalf("no confirmed %s witness in proof:\n%s", tc.class, proof)
			}
			if out.Witnesses == 0 {
				t.Fatal("Run replayed no witnesses")
			}
			if out.WitnessFailed != "" {
				t.Fatalf("witness failed to replay to a clamp: %s", out.WitnessFailed)
			}
			if out.Divergence != "" {
				t.Fatalf("unexpected failure: %s", out.Divergence)
			}
		})
	}
}

// cleanSpec proves saturation-free: f_one counts and cardinality
// never leave tiny ranges, so the clamp-soundness side of the
// cross-check must hold over a real trace run.
func cleanSpec() Spec {
	return Spec{
		Name: "sound-clean", TraceSeed: 23, Workers: 2,
		Blocks: []BlockSpec{{
			Gran: "flow",
			Maps: []MapSpec{{Dst: "b0m0", Func: "one"}},
			Reduces: []ReduceSpec{
				{Src: "b0m0", Reducers: []ReducerSpec{{Func: "sum"}}},
				{Src: "size", Reducers: []ReducerSpec{{Func: "card"}}},
			},
		}},
	}
}

// TestCleanPlanTripsNoClamp is the other half of the soundness
// cross-check: a plan proved saturation-free runs the full
// differential without moving any saturation counter.
func TestCleanPlanTripsNoClamp(t *testing.T) {
	spec := cleanSpec()
	out := Run(spec, RunOptions{Flows: 60})
	if out.BuildErr != "" || !out.Feasible {
		t.Fatalf("clean spec did not run: buildErr=%q feasible=%v", out.BuildErr, out.Feasible)
	}
	if !out.Report.Proof.Clean() {
		t.Fatalf("expected a clean proof:\n%s", out.Report.Proof)
	}
	if out.Failed() {
		t.Fatalf("clean plan failed the case: divergence=%q witness=%q", out.Divergence, out.WitnessFailed)
	}
}

// TestFaultCampaignIsolation attaches a scoped wire-fault campaign to
// the clean plan: the pass must run, preserve out-of-scope
// bit-equivalence, and trip no clamp (the kinds are non-corrupting).
func TestFaultCampaignIsolation(t *testing.T) {
	spec := cleanSpec()
	spec.Fault = &FaultSpec{Seed: 5, Rate: 0.2, Kinds: []string{"drop", "dup", "reorder"}}
	out := Run(spec, RunOptions{Flows: 120})
	if out.Failed() {
		t.Fatalf("faulted case failed: %+v", out)
	}
	if !out.Faulted() {
		t.Fatal("fault pass did not run on a single-granularity spec with a fault plan")
	}
}

// TestFaultCampaignCorruptingKinds: corrupt/truncate kinds skip the
// clamp assertion (quarantine, not the prover, owns garbage values)
// but the isolation contract still holds.
func TestFaultCampaignCorruptingKinds(t *testing.T) {
	spec := cleanSpec()
	spec.Fault = &FaultSpec{Seed: 9, Rate: 0.3, Kinds: []string{"corrupt", "truncate"}}
	out := Run(spec, RunOptions{Flows: 120})
	if out.Failed() {
		t.Fatalf("corrupting-kinds case failed: %+v", out)
	}
	if !out.Faulted() {
		t.Fatal("fault pass did not run")
	}
}

// TestFaultSpecUnknownKind: corpus files naming a bogus kind must
// fail loudly at build time, not run silently fault-free.
func TestFaultSpecUnknownKind(t *testing.T) {
	spec := cleanSpec()
	spec.Fault = &FaultSpec{Seed: 1, Rate: 0.1, Kinds: []string{"gamma-ray"}}
	out := Run(spec, RunOptions{Flows: 20})
	if out.BuildErr == "" || !strings.Contains(out.BuildErr, "gamma-ray") {
		t.Fatalf("unknown fault kind not rejected: buildErr=%q", out.BuildErr)
	}
}

// TestGenerateEmitsFaultCampaigns: the generator attaches fault plans
// to a healthy share of single-granularity cases, never to
// multi-granularity ones, and only names known kinds.
func TestGenerateEmitsFaultCampaigns(t *testing.T) {
	faulted := 0
	for i := 0; i < 120; i++ {
		s := Generate(42, i)
		if s.Fault == nil {
			continue
		}
		faulted++
		if len(s.Blocks) != 1 {
			t.Fatalf("case %d: fault campaign on a %d-block spec", i, len(s.Blocks))
		}
		if len(s.Fault.Kinds) == 0 {
			t.Fatalf("case %d: empty fault kind set", i)
		}
		for _, k := range s.Fault.Kinds {
			if _, ok := faultKindByName[k]; !ok {
				t.Fatalf("case %d: unknown generated kind %q", i, k)
			}
		}
		if s.Fault.Rate <= 0 || s.Fault.Rate > 0.5 {
			t.Fatalf("case %d: implausible rate %v", i, s.Fault.Rate)
		}
	}
	if faulted < 10 {
		t.Fatalf("only %d/120 generated cases carry a fault campaign", faulted)
	}
}

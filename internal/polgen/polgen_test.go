package polgen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/core"
	"superfe/internal/faults"
	"superfe/internal/planvet"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

// TestGenerateDeterministic pins the reproducibility contract: the
// same (seed, index) pair must always yield the same spec, or CI
// failure seeds stop reproducing locally.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, b := Generate(7, i), Generate(7, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(7, %d) is not deterministic:\n%+v\n%+v", i, a, b)
		}
	}
	if reflect.DeepEqual(Generate(7, 0), Generate(8, 0)) {
		t.Fatal("different seeds produced identical specs")
	}
}

// TestGeneratedSpecsValid checks the valid-by-construction property
// over a window of the campaign: every generated spec must build, and
// planvet must classify it without driver errors. The window must
// contain both verdicts, or the generator stopped straddling the
// hardware envelope and the campaign silently lost half its purpose.
func TestGeneratedSpecsValid(t *testing.T) {
	feasible, infeasible := 0, 0
	for i := 0; i < 80; i++ {
		spec := Generate(1, i)
		pol, err := spec.Build()
		if err != nil {
			t.Fatalf("spec %d does not build: %v", i, err)
		}
		r, err := planvet.CheckPolicy(spec.Model(), spec.Name, pol)
		if err != nil {
			t.Fatalf("spec %d: planvet: %v", i, err)
		}
		if r.Feasible() {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("campaign window lost envelope diversity: %d feasible, %d infeasible", feasible, infeasible)
	}
}

// TestSpecRoundTrip guards the corpus format: a spec must survive
// JSON marshal/unmarshal bit-for-bit, since corpus files are the
// serialized form.
func TestSpecRoundTrip(t *testing.T) {
	for i := 0; i < 20; i++ {
		spec := Generate(3, i)
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec %d does not round-trip:\n%+v\n%+v", i, spec, back)
		}
	}
}

// TestDifferentialGenerated runs a slice of the campaign end to end:
// for every feasible plan every leg must hold, and no planvet-accepted
// plan may trip the simulator's resource-overflow clamp. Small trace, few cases — the full 200-case
// campaign runs in CI via cmd/superfe-fuzz.
func TestDifferentialGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("differential campaign slice is not a -short test")
	}
	ran := 0
	for i := 0; i < 16; i++ {
		spec := Generate(1, i)
		out := Run(spec, RunOptions{Flows: 40})
		if out.Failed() {
			t.Errorf("case %d (%s) failed: buildErr=%q overflow=%v divergence=%q",
				i, spec.Name, out.BuildErr, out.Overflow, out.Divergence)
		}
		if out.Feasible {
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no feasible case in the slice; the differential never ran")
	}
}

// TestCorpusReplay re-runs every committed regression spec. Corpus
// files are minimal reproducers of past failures (plus coverage
// anchors for both planvet verdicts); a regression here means a
// previously fixed divergence is back.
func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus: testdata/corpus must hold at least the seed specs")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			var spec Spec
			if err := json.Unmarshal(b, &spec); err != nil {
				t.Fatalf("corrupt corpus file: %v", err)
			}
			out := Run(spec, RunOptions{Flows: 60})
			if out.Failed() {
				t.Errorf("corpus spec %s failed: buildErr=%q overflow=%v divergence=%q",
					spec.Name, out.BuildErr, out.Overflow, out.Divergence)
			}
		})
	}
}

// TestHostSingleGranKeys pins the fix the fuzzer's first campaign
// found: a single-granularity host policy must produce one group per
// source host, not a single zero-key group (the NIC's reconstruct
// path used to re-canonicalise the already-projected CG key, folding
// every host to 0.0.0.0 — and splitting into one bogus group per
// shard under the parallel engine).
func TestHostSingleGranKeys(t *testing.T) {
	spec := Spec{
		Name: "host-keys", TraceSeed: 42, Workers: 2,
		Blocks: []BlockSpec{{
			Gran:    "host",
			Reduces: []ReduceSpec{{Src: "size", Reducers: []ReducerSpec{{Func: "sum"}}}},
		}},
	}
	pol, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	out := Run(spec, RunOptions{Flows: 40})
	if out.Failed() {
		t.Fatalf("host-only differential failed: %+v", out)
	}
	if out.Vectors < 2 {
		t.Fatalf("host grouping collapsed: %d groups for 40 flows (policy %s)", out.Vectors, pol.Name())
	}
}

// newCase deploys pol at default device options on tr, sharded at
// workers over one ring configuration, under fp.
func newCase(t *testing.T, pol *policy.Policy, tr *trace.Trace, workers int, fp *faults.Plan) *dcase {
	t.Helper()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	return &dcase{pol: pol, plan: plan, opts: core.DefaultOptions(), tr: tr, workers: workers, rings: []ring{{64, 2}}, faults: fp}
}

// runLegs runs the named legs of the table on c and fails on any
// divergence.
func runLegs(t *testing.T, c *dcase, names ...string) *Outcome {
	t.Helper()
	var some []leg
	for _, l := range legs {
		for _, n := range names {
			if l.name == n {
				some = append(some, l)
			}
		}
	}
	out := &Outcome{}
	c.run(out, some)
	if out.Divergence != "" {
		t.Fatal(out.Divergence)
	}
	return out
}

// statsPolicy is a single-granularity TCP flow policy whose values
// are a count and the size moments.
func statsPolicy(t *testing.T) *policy.Policy {
	t.Helper()
	spec := Spec{Name: "stats", Filters: []FilterSpec{{Kind: "tcp"}}, Blocks: []BlockSpec{{
		Gran: "flow",
		Maps: []MapSpec{{Dst: "one", Func: "one"}},
		Reduces: []ReduceSpec{
			{Src: "one", Reducers: []ReducerSpec{{Func: "sum"}}},
			{Src: "size", Reducers: []ReducerSpec{{Func: "mean"}, {Func: "var"}, {Func: "min"}, {Func: "max"}}},
		},
	}}}
	pol, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestNamedCasesHoldEveryLeg runs the whole table on the ten catalog
// applications over each Table 2 workload at a small flow count, so
// Kitsune on CAMPUS is a case and not only random specs. Each deploys
// at default device options, which lets the serve leg run, and is
// sharded over ring configurations that force wrap-around and
// park/wake on both sides (one-row batches dispatch per packet; depth
// 1 is a one-slot ring). The fault plan holds every flow-scoped kind
// on the upper half of the CG-hash space. A leg may skip only for its
// stated reason.
func TestNamedCasesHoldEveryLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("the named cases are not a -short test")
	}
	fp := &faults.Plan{Seed: 7, Rate: 0.2, Kinds: faults.AllKinds &^ shardWide, ScopeLo: FaultScopeLo, ScopeHi: ^uint32(0)}
	// Flow counts that make each trace 2–3k packets.
	flows := map[string]int{"mawi": 30, "enterprise": 300, "campus": 60}
	for i, app := range apps.Catalog() {
		for j, w := range []string{"mawi", "enterprise", "campus"} {
			t.Run(app.Name+"/"+w, func(t *testing.T) {
				cfg, _ := trace.Workload(w)
				cfg.Flows = flows[w]
				c := newCase(t, app.Build(), trace.Generate(cfg, 42), 2+(i+j)%3, fp)
				c.rings = []ring{{1, 1}, {1, 4}, {7, 1}, {64, 2}, {256, 4}}
				c.served = true
				out := &Outcome{}
				c.run(out, legs)
				if out.Divergence != "" {
					t.Fatal(out.Divergence)
				}
				if out.Vectors == 0 {
					t.Fatal("the inline reference emitted no vectors")
				}
				for _, l := range legs {
					v := out.Legs[l.name]
					switch {
					case v == held:
					case l.skipFG && out.Approx && strings.HasPrefix(v, "skipped"):
					case strings.HasPrefix(l.name, "fault") && len(c.plan.Switch.Chain) > 1 && strings.HasPrefix(v, "skipped"):
					case strings.HasPrefix(l.name, "obs") && strings.HasPrefix(v, "vacuous: no interval snapshot"):
						// A few thousand packets are far short of one
						// snapshot interval; TestObsLegOnLongTrace
						// covers the recorder.
					default:
						t.Errorf("%s: %s", l.name, v)
					}
				}
			})
		}
	}
}

// TestShardedLegRings holds the sharded leg to NPOD at three workers,
// one ring configuration per subtest: one-row batches dispatch per
// packet, depth 1 is a one-slot ring, so both sides wrap around and
// park and wake. Each configuration streams once and matches the
// default ring's deterministic merge as an exact sequence.
func TestShardedLegRings(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 250
	tr := trace.Generate(cfg, 23)
	for _, g := range []ring{{1, 1}, {1, 4}, {7, 1}, {64, 2}, {256, 4}} {
		t.Run(fmt.Sprintf("batch=%d/depth=%d", g.batch, g.depth), func(t *testing.T) {
			c := newCase(t, apps.NPOD(), tr, 3, nil)
			c.rings = []ring{g, {}}
			out := runLegs(t, c, "sharded")
			if out.Vectors == 0 {
				t.Fatal("the inline reference emitted no vectors")
			}
			if out.Legs["sharded"] != held {
				t.Fatalf("sharded: %s", out.Legs["sharded"])
			}
		})
	}
}

// TestObsLegOnLongTrace holds the observers, inline and at four
// workers, to a trace past two snapshot intervals under every fault
// kind, shard-wide hazards included: the recorder's quiesced captures,
// the span lottery and the quarantine, retry and degradation paths the
// flight recorder hooks all run inside the compared runs, so neither
// leg may be vacuous.
func TestObsLegOnLongTrace(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 2500
	tr := trace.Generate(cfg, 77)
	for _, l := range []string{"inline", "sharded"} {
		t.Run(l, func(t *testing.T) {
			c := newCase(t, statsPolicy(t), tr, 4, &faults.Plan{Seed: 9, Rate: 0.2, Kinds: faults.AllKinds})
			if out := runLegs(t, c, "obs-"+l); out.Legs["obs-"+l] != held {
				t.Fatalf("obs-%s: %s", l, out.Legs["obs-"+l])
			}
		})
	}
}

// TestFaultLegScoped holds the fault legs, inline and at four workers,
// to a 20 % wire-fault plan on the bottom quarter of the CG-hash
// space: the groups outside it stay bit-identical, and neither leg may
// be vacuous — the plan injects, groups fall outside the scope, and
// groups inside it change.
func TestFaultLegScoped(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 600
	tr := trace.Generate(cfg, 77)
	for _, l := range []string{"inline", "sharded"} {
		t.Run(l, func(t *testing.T) {
			c := newCase(t, statsPolicy(t), tr, 4,
				&faults.Plan{Seed: 7, Rate: 0.2, Kinds: faults.WireKinds, ScopeLo: 0, ScopeHi: 0x3FFFFFFF})
			if out := runLegs(t, c, "fault-"+l); out.Legs["fault-"+l] != held {
				t.Fatalf("fault-%s: %s", l, out.Legs["fault-"+l])
			}
		})
	}
}

package core

import (
	"strconv"
	"strings"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

// compilePlan compiles a policy for the swap tests.
func compilePlan(t *testing.T, pol *policy.Policy) *policy.Plan {
	t.Helper()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSwapPlanCleanSplit is the engine-level hot-reload contract:
// packets processed before the swap are extracted entirely under the
// old plan, packets after entirely under the new one, and the output
// is byte-equivalent (as multisets per segment) to two independent
// single-plan deployments over the respective halves of the trace.
// NPOD and Kitsune have different feature dimensions and metadata
// layouts, so the swap also exercises the columnar-batch resizing.
func TestSwapPlanCleanSplit(t *testing.T) {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 300
	tr := trace.Generate(cfg, 7)
	cut := len(tr.Packets) / 2

	opts := DefaultParallelOptions()
	opts.Workers = 2
	opts.VerifyWire = true

	// Reference: old plan over the first half.
	refOld := []feature.Vector{}
	eA, err := NewParallel(opts, apps.NPOD(), feature.Collect(&refOld))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		eA.Process(&tr.Packets[i])
	}
	if err := eA.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eA.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: new plan over the second half.
	refNew := []feature.Vector{}
	eB, err := NewParallel(opts, apps.Kitsune(), feature.Collect(&refNew))
	if err != nil {
		t.Fatal(err)
	}
	for i := cut; i < len(tr.Packets); i++ {
		eB.Process(&tr.Packets[i])
	}
	if err := eB.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eB.Close(); err != nil {
		t.Fatal(err)
	}

	// Live engine: old plan, swap at the cut, new plan.
	var got []feature.Vector
	e, err := NewParallel(opts, apps.NPOD(), feature.Collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		e.Process(&tr.Packets[i])
	}
	if err := e.SwapPlan(compilePlan(t, apps.Kitsune())); err != nil {
		t.Fatalf("SwapPlan: %v", err)
	}
	swapMark := len(got) // SwapPlan flushed: every old-plan vector is out
	for i := cut; i < len(tr.Packets); i++ {
		e.Process(&tr.Packets[i])
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if d := feature.Diff("old-plan prefix", got[:swapMark], "single-plan reference", refOld, false); d != "" {
		t.Error(d)
	}
	if d := feature.Diff("new-plan suffix", got[swapMark:], "single-plan reference", refNew, false); d != "" {
		t.Error(d)
	}
	oldDim, newDim := apps.NPOD().FeatureDim(), apps.Kitsune().FeatureDim()
	for i, v := range got {
		want := oldDim
		if i >= swapMark {
			want = newDim
		}
		if len(v.Values) != want {
			t.Fatalf("vector %d has dim %d, want %d (torn swap?)", i, len(v.Values), want)
		}
	}
}

// TestSwapPlanUpdatesPlanAndStatus: the engine serves the new plan's
// identity after a swap, and the admin caches refresh.
func TestSwapPlanUpdatesPlanAndStatus(t *testing.T) {
	opts := DefaultParallelOptions()
	opts.Workers = 2
	var sink []feature.Vector
	e, err := NewParallel(opts, apps.NPOD(), feature.Collect(&sink))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.Plan().Policy.Name(); got != "NPOD" {
		t.Fatalf("initial plan = %q", got)
	}
	if err := e.SwapPlan(compilePlan(t, apps.Kitsune())); err != nil {
		t.Fatal(err)
	}
	if got := e.Plan().Policy.Name(); got != "Kitsune" {
		t.Errorf("post-swap plan = %q, want Kitsune", got)
	}
	st := e.Status()
	if st.Policy != "Kitsune" {
		t.Errorf("post-swap /status policy = %q, want Kitsune", st.Policy)
	}
	if st.Workers != 2 || len(st.Shards) != 2 {
		t.Errorf("post-swap status workers=%d shards=%d, want 2/2", st.Workers, len(st.Shards))
	}
}

// TestSwapPlanObsContinuity: telemetry keeps scraping across a swap —
// the merged registry schema is identical before and after (per-shard
// schemas are plan-independent), and the router's routing counters
// carry across while per-shard pipeline counters restart.
func TestSwapPlanObsContinuity(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 120
	tr := trace.Generate(cfg, 11)

	opts := DefaultParallelOptions()
	opts.Workers = 2
	opts.Obs = obs.DefaultOptions()
	opts.Obs.Enabled = true
	var sink []feature.Vector
	e, err := NewParallel(opts, apps.NPOD(), feature.Collect(&sink))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := range tr.Packets {
		e.Process(&tr.Packets[i])
	}
	e.Drain()
	before := e.ObsScrape()
	routedBefore := uint64(0)
	for sh := 0; sh < opts.Workers; sh++ {
		v, ok := before.Value("superfe_engine_shard_pkts_total", strconv.Itoa(sh))
		if !ok {
			t.Fatalf("shard %d routing counter missing pre-swap", sh)
		}
		routedBefore += v
	}
	if routedBefore != uint64(len(tr.Packets)) {
		t.Fatalf("routed %d != %d packets pre-swap", routedBefore, len(tr.Packets))
	}

	if err := e.SwapPlan(compilePlan(t, apps.Kitsune())); err != nil {
		t.Fatal(err)
	}
	after := e.ObsScrape()
	if len(after.Defs) != len(before.Defs) {
		t.Fatalf("registry schema changed across swap: %d vs %d series", len(after.Defs), len(before.Defs))
	}
	routedAfter := uint64(0)
	for sh := 0; sh < opts.Workers; sh++ {
		v, ok := after.Value("superfe_engine_shard_pkts_total", strconv.Itoa(sh))
		if !ok {
			t.Fatalf("shard %d routing counter missing post-swap", sh)
		}
		routedAfter += v
	}
	if routedAfter != routedBefore {
		t.Errorf("router routing counters did not carry across the swap: %d vs %d", routedAfter, routedBefore)
	}
	// Per-shard pipeline counters restart with the new deployment.
	if v, ok := after.Value("superfe_switch_pkts_in_total"); ok && v != 0 {
		t.Errorf("per-shard switch counters did not restart: %d", v)
	}
}

// TestSwapPlanOnClosedEngine: a closed engine rejects the swap.
func TestSwapPlanOnClosedEngine(t *testing.T) {
	var sink []feature.Vector
	e, err := NewParallel(DefaultParallelOptions(), apps.NPOD(), feature.Collect(&sink))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapPlan(compilePlan(t, apps.Kitsune())); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("SwapPlan on closed engine: err = %v", err)
	}
}

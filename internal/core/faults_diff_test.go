package core

import (
	"math"
	"testing"

	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/trace"
)

// The differential fault-isolation suite: run the same fixed-seed
// trace clean and under a fault plan scoped to a known CG-hash range,
// and prove the blast radius. Flows outside the scope must emit
// bit-identical feature vectors — the structural guarantee that a
// corrupted or lost frame can damage only the flows it belongs to.
//
// The tests use the single-granularity stats policy: with CG == FG
// the frame's switch-computed key hash covers the complete group
// identity, so quarantine-on-integrity-failure makes isolation exact.
// Multi-granularity plans share the FG key table across flows, which
// is why FG updates ride the reliable control channel and are never
// faulted (see DESIGN.md §9).

// faultScope is the CG-hash range the plans in this file target:
// the bottom quarter of the hash space.
const (
	scopeLo = uint32(0)
	scopeHi = uint32(0x3FFFFFFF)
)

func inScope(k flowkey.Key) bool {
	h := flowkey.HashKey(k)
	return h >= scopeLo && h <= scopeHi
}

// runSeq runs the campus trace through an inline engine and
// returns the emitted vectors keyed by group.
func runSeq(t *testing.T, opts Options, tr *trace.Trace) map[flowkey.Key]feature.Vector {
	t.Helper()
	var vecs []feature.Vector
	fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	if err := fe.Err(); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[flowkey.Key]feature.Vector, len(vecs))
	for _, v := range vecs {
		byKey[v.Key] = v
	}
	return byKey
}

func bitIdentical(a, b feature.Vector) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// injected sums a run's injected-fault counters across kinds.
func injected(s faults.Stats) uint64 {
	var n uint64
	for _, k := range s.Injected {
		n += k
	}
	return n
}

func wirePlan(seed int64) *faults.Plan {
	return &faults.Plan{
		Seed:    seed,
		Rate:    0.2,
		Kinds:   faults.WireKinds,
		ScopeLo: scopeLo,
		ScopeHi: scopeHi,
	}
}

func TestFaultIsolationDifferential(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 600
	tr := trace.Generate(cfg, 77)

	clean := runSeq(t, DefaultOptions(), tr)

	opts := DefaultOptions()
	opts.Faults = wirePlan(7)
	var faultStats faults.Stats
	faulted := func() map[flowkey.Key]feature.Vector {
		var vecs []feature.Vector
		fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		fe.Flush()
		faultStats = fe.FaultStats()
		byKey := make(map[flowkey.Key]feature.Vector, len(vecs))
		for _, v := range vecs {
			byKey[v.Key] = v
		}
		return byKey
	}()

	if injected(faultStats) == 0 {
		t.Fatal("a 20% wire fault plan injected nothing — the test is vacuous")
	}

	outOfScope, damaged := 0, 0
	for k, cv := range clean {
		fv, ok := faulted[k]
		if !inScope(k) {
			outOfScope++
			if !ok {
				t.Fatalf("out-of-scope flow %v lost its vector under scoped faults", k)
			}
			if !bitIdentical(cv, fv) {
				t.Fatalf("out-of-scope flow %v drifted: clean %v vs faulted %v — fault isolation broken", k, cv.Values, fv.Values)
			}
			continue
		}
		if !ok || !bitIdentical(cv, fv) {
			damaged++
		}
	}
	if outOfScope == 0 {
		t.Fatal("no flows outside the fault scope — widen the trace")
	}
	if damaged == 0 {
		t.Fatal("no in-scope flow was affected at rate 0.2 — injection is not reaching the wire")
	}
	t.Logf("faults: %v; %d out-of-scope flows bit-identical, %d in-scope flows perturbed",
		faultStats, outOfScope, damaged)
}

// TestFaultQuarantineCounts proves corrupted and truncated frames are
// counted and dropped rather than merged: the quarantine counter must
// move, and (checked by the isolation test above) no foreign state
// may appear in other flows.
func TestFaultQuarantineCounts(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 400
	tr := trace.Generate(cfg, 13)

	opts := DefaultOptions()
	opts.Faults = &faults.Plan{
		Seed:  3,
		Rate:  0.5,
		Kinds: faults.Set(0).With(faults.KindCorrupt).With(faults.KindTruncate),
	}
	var vecs []feature.Vector
	fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	st := fe.FaultStats()
	if st.Injected[faults.KindTruncate] == 0 {
		t.Fatal("no truncation faults at rate 0.5")
	}
	if st.Quarantined == 0 {
		t.Fatal("truncated frames were not quarantined")
	}
	if len(vecs) == 0 {
		t.Fatal("pipeline emitted nothing under corruption — degradation is not graceful")
	}
	if err := fe.Err(); err != nil {
		t.Fatalf("fault handling surfaced a pipeline error: %v", err)
	}
}

// TestFaultSequenceReproducible is the determinism acceptance
// criterion: identical seeds must reproduce identical fault sequences
// — same injection counters, same vectors, bit for bit.
func TestFaultSequenceReproducible(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 400
	tr := trace.Generate(cfg, 21)

	opts := DefaultOptions()
	opts.Faults = &faults.Plan{Seed: 11, Rate: 0.3, Kinds: faults.AllKinds}
	opts.Switch.AgingT = 5_000_000 // exercise the aging fault kinds too
	opts.Switch.AgingScanNS = 1000

	run := func() ([]feature.Vector, faults.Stats) {
		var vecs []feature.Vector
		fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		fe.Flush()
		return vecs, fe.FaultStats()
	}
	v1, s1 := run()
	v2, s2 := run()
	if s1 != s2 {
		t.Fatalf("identical seeds produced different fault sequences:\n%v\n%v", s1, s2)
	}
	if injected(s1) == 0 {
		t.Fatal("all-kinds plan at rate 0.3 injected nothing")
	}
	if len(v1) != len(v2) {
		t.Fatalf("vector counts differ: %d vs %d", len(v1), len(v2))
	}
	for i := range v1 {
		if v1[i].Key != v2[i].Key || !bitIdentical(v1[i], v2[i]) {
			t.Fatalf("vector %d differs across identical faulted runs", i)
		}
	}
}

// TestTimingFaultsPreserveFeatures pins the strongest property of the
// switch-side fault kinds: aging stalls and register soft errors only
// perturb WHEN groups are evicted, never the per-group cell streams,
// so every flow — in scope or not — emits bit-identical feature
// values. (Vector timestamps may legitimately differ.)
func TestTimingFaultsPreserveFeatures(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 500
	tr := trace.Generate(cfg, 42)

	base := DefaultOptions()
	base.Switch.AgingT = 5_000_000
	base.Switch.AgingScanNS = 1000
	clean := runSeq(t, base, tr)

	opts := base
	opts.Faults = &faults.Plan{
		Seed:    5,
		Rate:    0.3,
		Kinds:   faults.SwitchKinds,
		ScopeLo: scopeLo,
		ScopeHi: scopeHi,
	}
	var vecs []feature.Vector
	fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	st := fe.FaultStats()
	if st.Injected[faults.KindAgingStall] == 0 && st.Injected[faults.KindSoftError] == 0 {
		t.Fatal("no switch-side faults injected — the test is vacuous")
	}
	faulted := make(map[flowkey.Key]feature.Vector, len(vecs))
	for _, v := range vecs {
		faulted[v.Key] = v
	}
	if len(faulted) != len(clean) {
		t.Fatalf("flow count changed under timing faults: %d vs %d", len(faulted), len(clean))
	}
	for k, cv := range clean {
		fv, ok := faulted[k]
		if !ok {
			t.Fatalf("flow %v lost its vector under timing-only faults", k)
		}
		if !bitIdentical(cv, fv) {
			t.Fatalf("timing-only faults changed flow %v features: %v vs %v", k, cv.Values, fv.Values)
		}
	}
}

// TestDegradedModeShedsUnderPressure drives sustained island stalls
// through the controller's windows and checks the full degradation
// chain: retries, retry drops, a degraded-mode transition, long-buffer
// shedding on the switch — and a pipeline that still emits vectors.
// The trace runs past two degradeWindow periods; at an 80% stall rate
// no window's stall cycles fall to degradeExitCycles.
func TestDegradedModeShedsUnderPressure(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 4000
	tr := trace.Generate(cfg, 31)

	opts := DefaultOptions()
	opts.Faults = &faults.Plan{
		Seed:  19,
		Rate:  0.8,
		Kinds: faults.Set(0).With(faults.KindIslandStall),
	}
	var vecs []feature.Vector
	fe, err := New(opts, statsPolicy(), feature.Collect(&vecs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	st := fe.FaultStats()
	sw := fe.SwitchStats()
	if st.Retries == 0 {
		t.Fatal("no deliver retries under 80% island stalls")
	}
	if st.RetryDrops == 0 {
		t.Fatal("no retry-budget drops under 80% island stalls")
	}
	if st.DegradedTransitions == 0 {
		t.Fatal("pressure controller never entered degraded mode")
	}
	if !fe.Degraded() {
		t.Fatal("engine should still be degraded at end of trace")
	}
	if sw.ShedCells == 0 {
		t.Fatal("degraded switch shed no long-buffer cells")
	}
	fe.Flush()
	if len(vecs) == 0 {
		t.Fatal("degraded pipeline emitted nothing — short-buffer extraction must survive")
	}
}

// TestParallelFaultIsolation repeats the differential experiment on
// the sharded engine: per-shard injectors (seeded from plan seed +
// shard index) must preserve the same scoped-isolation guarantee, and
// the merged fault stats must surface the injections.
func TestParallelFaultIsolation(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 600
	tr := trace.Generate(cfg, 77)

	run := func(plan *faults.Plan) (map[flowkey.Key]feature.Vector, faults.Stats) {
		popts := ParallelOptions{
			Options:            DefaultOptions(),
			Workers:            4,
			DeterministicMerge: true,
		}
		popts.Options.Faults = plan
		var vecs []feature.Vector
		eng, err := NewParallel(popts, statsPolicy(), feature.Collect(&vecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			eng.Process(&tr.Packets[i])
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		st := eng.FaultStats()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		byKey := make(map[flowkey.Key]feature.Vector, len(vecs))
		for _, v := range vecs {
			byKey[v.Key] = v
		}
		return byKey, st
	}

	clean, _ := run(nil)
	faulted, st := run(wirePlan(7))
	if injected(st) == 0 {
		t.Fatal("parallel injectors injected nothing")
	}

	outOfScope, damaged := 0, 0
	for k, cv := range clean {
		fv, ok := faulted[k]
		if !inScope(k) {
			outOfScope++
			if !ok || !bitIdentical(cv, fv) {
				t.Fatalf("out-of-scope flow %v perturbed in the parallel engine", k)
			}
			continue
		}
		if !ok || !bitIdentical(cv, fv) {
			damaged++
		}
	}
	if outOfScope == 0 || damaged == 0 {
		t.Fatalf("vacuous parallel differential: %d out-of-scope, %d damaged", outOfScope, damaged)
	}
}

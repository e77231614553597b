package core

import (
	"testing"

	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/trace"
)

// The fault-path tests: quarantine, determinism, timing-only faults
// and degradation. Scoped isolation — groups outside a plan's CG-hash
// scope emit bit-identical vectors, inline and sharded — is the fault
// leg of the differential runner in internal/polgen.

// runSeq runs the trace through an inline engine under opts and
// returns the vectors, with their timestamps cleared, and the fault
// counters.
func runSeq(t *testing.T, opts Options, tr *trace.Trace) ([]feature.Vector, faults.Stats) {
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
	for i := range vecs {
		vecs[i].Timestamp = 0
	}
	return vecs, fe.FaultStats()
}

// injected sums a run's injected-fault counters across kinds.
func injected(s faults.Stats) uint64 {
	var n uint64
	for _, k := range s.Injected {
		n += k
	}
	return n
}

// TestFaultQuarantineCounts proves corrupted and truncated frames are
// counted and dropped rather than merged: the quarantine counter must
// move, and (checked by polgen's fault leg) no foreign state may
// appear in other flows.
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

	v1, s1 := runSeq(t, opts, tr)
	v2, s2 := runSeq(t, opts, tr)
	if s1 != s2 {
		t.Fatalf("identical seeds produced different fault sequences:\n%v\n%v", s1, s2)
	}
	if injected(s1) == 0 {
		t.Fatal("all-kinds plan at rate 0.3 injected nothing")
	}
	if d := feature.Diff("first run", v1, "second run", v2, true); d != "" {
		t.Fatalf("identical faulted runs differ: %s", d)
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
	clean, _ := runSeq(t, base, tr)

	opts := base
	opts.Faults = &faults.Plan{Seed: 5, Rate: 0.3, Kinds: faults.SwitchKinds, ScopeHi: 0x3FFFFFFF}
	faulted, st := runSeq(t, opts, tr)
	if st.Injected[faults.KindAgingStall] == 0 && st.Injected[faults.KindSoftError] == 0 {
		t.Fatal("no switch-side faults injected — the test is vacuous")
	}
	if d := feature.Diff("clean", clean, "timing-faulted", faulted, false); d != "" {
		t.Fatalf("timing-only faults changed features: %s", d)
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

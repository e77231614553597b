package core

import (
	"testing"

	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/trace"
)

// The observability differential: telemetry, span tracing and the
// flight recorder must be pure observers. A fixed-seed run with every
// facility enabled (and a fault plan exercising the quarantine/retry/
// degradation paths the flight recorder hooks) must emit exactly the
// vectors of the same run with everything off — same count, same
// order, same keys, same timestamps, bit-identical values.

// obsDiffPlan exercises every fault path so the instrumented branches
// (FR records, engine counters) all run during the comparison.
func obsDiffPlan() *faults.Plan {
	return &faults.Plan{Seed: 9, Rate: 0.2, Kinds: faults.AllKinds}
}

// obsDiffTrace runs past two snapshot intervals, so the recorder's
// quiesced captures happen inside the compared run.
func obsDiffTrace() *trace.Trace {
	cfg := trace.CampusConfig
	cfg.Flows = 2500
	return trace.Generate(cfg, 77)
}

func identicalVectors(t *testing.T, name string, off, on []feature.Vector) {
	t.Helper()
	if len(off) != len(on) {
		t.Fatalf("%s: vector counts differ: obs-off %d vs obs-on %d", name, len(off), len(on))
	}
	for i := range off {
		if off[i].Key != on[i].Key {
			t.Fatalf("%s: vector %d key differs: %v vs %v", name, i, off[i].Key, on[i].Key)
		}
		if off[i].Timestamp != on[i].Timestamp {
			t.Fatalf("%s: vector %d timestamp differs: %d vs %d", name, i, off[i].Timestamp, on[i].Timestamp)
		}
		if !bitIdentical(off[i], on[i]) {
			t.Fatalf("%s: vector %d values differ: %v vs %v", name, i, off[i].Values, on[i].Values)
		}
	}
}

// TestObsDifferentialSequential: inline engine, obs-off vs obs-on
// (plus flight recorder off vs on), byte-identical output.
func TestObsDifferentialSequential(t *testing.T) {
	tr := obsDiffTrace()

	run := func(withObs bool) []feature.Vector {
		opts := DefaultOptions()
		opts.Faults = obsDiffPlan()
		if withObs {
			opts.Obs = obsTestOptions()
		} else {
			opts.FlightRec.Disable = true
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
		if err := fe.Err(); err != nil {
			t.Fatal(err)
		}
		if withObs && injected(fe.FaultStats()) == 0 {
			t.Fatal("fault plan injected nothing — the differential is vacuous")
		}
		if withObs && len(fe.ObsSeries().Snaps) == 0 {
			t.Fatal("no interval snapshot fired — the recorder never ran")
		}
		return vecs
	}

	identicalVectors(t, "sequential", run(false), run(true))
}

// TestObsDifferentialParallel repeats the experiment on the sharded
// engine with deterministic merge: span sampling rides inside the
// batches and the ring instrumentation sits on the hand-off itself, so
// this is the test that proves the observers never touch the data.
func TestObsDifferentialParallel(t *testing.T) {
	tr := obsDiffTrace()

	run := func(withObs bool) []feature.Vector {
		popts := DefaultParallelOptions()
		popts.Workers = 4
		popts.DeterministicMerge = true
		popts.Options.Faults = obsDiffPlan()
		if withObs {
			popts.Obs = obsTestOptions()
		} else {
			popts.FlightRec.Disable = true
		}
		var vecs []feature.Vector
		pe, err := NewParallel(popts, statsPolicy(), feature.Collect(&vecs))
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			pe.Process(&tr.Packets[i])
		}
		if err := pe.Flush(); err != nil {
			t.Fatal(err)
		}
		if withObs {
			if injected(pe.FaultStats()) == 0 {
				t.Fatal("parallel fault plan injected nothing — the differential is vacuous")
			}
			if len(pe.ObsSpans()) == 0 {
				t.Fatal("no spans sampled — the span path never ran")
			}
			if len(pe.ObsSeries().Snaps) == 0 {
				t.Fatal("no interval snapshot fired — the recorder never ran")
			}
		}
		if err := pe.Close(); err != nil {
			t.Fatal(err)
		}
		return vecs
	}

	identicalVectors(t, "parallel", run(false), run(true))
}

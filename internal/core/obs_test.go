package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/flowkey"
	"superfe/internal/obs"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func obsTestOptions() obs.Options { return obs.Options{Enabled: true} }

// obsSeriesTrace runs past two snapshot intervals, so the interval
// series has rows and the span ring samples at its fixed rate.
func obsSeriesTrace() *trace.Trace {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 16000
	return trace.Generate(cfg, 42)
}

func obsTestTrace() *trace.Trace {
	cfg := trace.EnterpriseConfig
	cfg.Flows = 400
	return trace.Generate(cfg, 42)
}

// stripSchedulingProm removes the superfe_ring_* series from a
// Prometheus exposition. The ring backpressure metrics (parks, spins,
// wakes, occupancy high-water) measure real goroutine scheduling,
// which a fixed seed deliberately does not pin — every other series
// is pipeline semantics and must stay byte-identical.
func stripSchedulingProm(b []byte) []byte {
	var out []byte
	for _, line := range bytes.Split(b, []byte("\n")) {
		if bytes.Contains(line, []byte("superfe_ring_")) {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// stripSchedulingCSV removes the superfe_ring_* columns from a series
// CSV (same rationale as stripSchedulingProm).
func stripSchedulingCSV(b []byte) []byte {
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	if len(lines) == 0 {
		return b
	}
	header := bytes.Split(lines[0], []byte(","))
	keep := make([]bool, len(header))
	for i, name := range header {
		keep[i] = !bytes.Contains(name, []byte("superfe_ring_"))
	}
	var out []byte
	for _, line := range lines {
		fields := bytes.Split(line, []byte(","))
		first := true
		for i, f := range fields {
			if i < len(keep) && !keep[i] {
				continue
			}
			if !first {
				out = append(out, ',')
			}
			out = append(out, f...)
			first = false
		}
		out = append(out, '\n')
	}
	return out
}

// TestObsDeterministicDumps asserts byte-identical telemetry under a
// fixed seed: two independent 4-worker runs must render the same
// Prometheus exposition and the same interval-series CSV, modulo the
// scheduling-domain ring series (stripped above).
func TestObsDeterministicDumps(t *testing.T) {
	run := func() (promText, seriesCSV []byte) {
		t.Helper()
		tr := obsSeriesTrace()
		popts := DefaultParallelOptions()
		popts.Obs = obsTestOptions()
		popts.Workers = 4
		popts.DeterministicMerge = true
		pe, err := NewParallel(popts, apps.NPOD(), func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		defer pe.Close()
		for i := range tr.Packets {
			pe.Process(&tr.Packets[i])
		}
		if err := pe.Flush(); err != nil {
			t.Fatal(err)
		}
		var p, c bytes.Buffer
		if err := obs.WritePrometheus(&p, pe.ObsScrape()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteSeriesCSV(&c, pe.ObsSeries()); err != nil {
			t.Fatal(err)
		}
		return p.Bytes(), c.Bytes()
	}
	p1, c1 := run()
	p2, c2 := run()
	p1, p2 = stripSchedulingProm(p1), stripSchedulingProm(p2)
	c1, c2 = stripSchedulingCSV(c1), stripSchedulingCSV(c2)
	if !bytes.Equal(p1, p2) {
		t.Error("Prometheus dumps differ between fixed-seed runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("series CSVs differ between fixed-seed runs")
	}
	if len(c1) == 0 || bytes.Count(c1, []byte("\n")) < 2 {
		t.Errorf("series CSV suspiciously small:\n%s", c1)
	}
}

// TestObsPrometheusGolden pins the full seed-42 exposition to a golden
// file, catching accidental schema, ordering or semantics drift.
// Regenerate with: go test ./internal/core -run Golden -update
func TestObsPrometheusGolden(t *testing.T) {
	tr := obsTestTrace()
	opts := DefaultOptions()
	opts.Obs = obsTestOptions()
	fe, err := New(opts, apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	var got bytes.Buffer
	if err := obs.WritePrometheus(&got, fe.ObsScrape()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics_seed42.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("seed-42 exposition drifted from %s (regenerate with -update if intended)", golden)
	}
}

// TestObsCompleteTimeline asserts the tracer reconstructs at least one
// full admit→evict→vector-emit lifecycle, in both engines.
func TestObsCompleteTimeline(t *testing.T) {
	o := obsTestOptions()

	check := func(name string, tls []obs.Timeline) {
		if len(tls) == 0 {
			t.Fatalf("%s: no timelines recorded", name)
		}
		for i := range tls {
			if tls[i].Complete() {
				return
			}
		}
		t.Errorf("%s: no complete admit→evict→emit timeline among %d", name, len(tls))
	}

	tr := obsTestTrace()
	opts := DefaultOptions()
	opts.Obs = o
	fe, err := New(opts, apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	fe.Flush()
	check("sequential", fe.ObsTimelines())

	popts := DefaultParallelOptions()
	popts.Obs = o
	popts.Workers = 4
	pe, err := NewParallel(popts, apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	for i := range tr.Packets {
		pe.Process(&tr.Packets[i])
	}
	if err := pe.Flush(); err != nil {
		t.Fatal(err)
	}
	check("parallel", pe.ObsTimelines())
}

// TestObsDisabledIsInert: with the zero Options the engines must not
// build any telemetry state and the accessors must degrade to nils.
func TestObsDisabledIsInert(t *testing.T) {
	fe, err := New(DefaultOptions(), apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	if fe.ObsScrape() != nil || fe.ObsTimelines() != nil {
		t.Error("disabled telemetry must return nils")
	}
	if s := fe.ObsSeries(); len(s.Snaps) != 0 {
		t.Error("disabled telemetry must have an empty series")
	}
	pe, err := NewParallel(DefaultParallelOptions(), apps.NPOD(), func(feature.Vector) {})
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	if pe.ObsScrape() != nil || pe.ObsTimelines() != nil {
		t.Error("disabled parallel telemetry must return nils")
	}
}

// TestObsNeverDecidesDeploy: telemetry only counts what the engine
// did, so whether a plan deploys cannot depend on it. The probe's
// histogram is priced past the placement model's per-group EMEM budget
// (nicsim.EMEMPerGroupBudget), a plan the modelled NIC cannot place;
// the engine still executes it, with telemetry off and on alike. It is
// the narrowest power-of-two such histogram: a record holds every bin
// (two to a word: 1 MiB), and a record that wide gets a group-table
// block of its own.
func TestObsNeverDecidesDeploy(t *testing.T) {
	pol := policy.New("wide-hist").
		GroupBy(flowkey.GranFlow).
		Map("sz", policy.SrcField(packet.FieldSize), policy.MapIdentity).
		Reduce("sz", policy.RFHist(1, 1<<18)).
		Collect().
		MustBuild()
	cfg := trace.EnterpriseConfig
	cfg.Flows = 4
	tr := trace.Generate(cfg, 42)
	var counts []int
	for _, on := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Obs.Enabled = on
		n := 0
		fe, err := New(opts, pol, func(feature.Vector) { n++ })
		if err != nil {
			t.Fatalf("obs %v: %v", on, err)
		}
		for i := range tr.Packets {
			fe.Process(&tr.Packets[i])
		}
		if err := fe.Flush(); err != nil {
			t.Fatalf("obs %v: %v", on, err)
		}
		if err := fe.Close(); err != nil {
			t.Fatalf("obs %v: %v", on, err)
		}
		counts = append(counts, n)
	}
	if counts[0] == 0 || counts[0] != counts[1] {
		t.Errorf("vectors with obs off, on = %v; want equal and nonzero", counts)
	}
}

// TestObsTimelinesGolden pins the rendered flow-lifecycle timelines of
// a fixed-seed run, inline and sharded, to a golden file — the one obs
// view the other goldens do not cover.
func TestObsTimelinesGolden(t *testing.T) {
	tr := obsTestTrace()
	o := obsTestOptions()
	var got bytes.Buffer
	for _, workers := range []int{0, 4} {
		popts := DefaultParallelOptions()
		popts.Obs = o
		popts.Workers = workers
		popts.DeterministicMerge = true
		plan, err := policy.Compile(apps.NPOD())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewFromPlan(popts, plan, func(feature.Vector) {})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Packets {
			e.Process(&tr.Packets[i])
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		tls := e.ObsTimelines()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if len(tls) == 0 {
			t.Fatalf("workers=%d: no timelines", workers)
		}
		fmt.Fprintf(&got, "# workers=%d\n", workers)
		if err := obs.WriteTimelinesJSON(&got, tls); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "obs_timelines.golden", got.Bytes())
}

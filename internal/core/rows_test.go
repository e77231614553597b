package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/nicsim"
	"superfe/internal/obs"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

// unboundCounters lists the uint64 and [N]uint64 fields of *stats that
// no row's Word points into: a counter the merge, the registry schema
// and the publish would all silently miss.
func unboundCounters(stats any, rows []obs.Row) []string {
	bound := map[*uint64]bool{}
	for _, r := range rows {
		bound[r.Word] = true
	}
	var missing []string
	v := reflect.ValueOf(stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Kind() == reflect.Uint64 && !bound[f.Addr().Interface().(*uint64)]:
			missing = append(missing, name)
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Uint64:
			for j := 0; j < f.Len(); j++ {
				if !bound[f.Index(j).Addr().Interface().(*uint64)] {
					missing = append(missing, fmt.Sprintf("%s[%d]", name, j))
				}
			}
		}
	}
	return missing
}

// TestEveryCounterHasARow is what replaced the statsmerge analyzer: a
// counter added to one of the three stats structs without a row fails
// here, and a row is all Add, registration and publishing need.
func TestEveryCounterHasARow(t *testing.T) {
	var sw switchsim.Stats
	var nic nicsim.RuntimeStats
	var fs faults.Stats
	for name, missing := range map[string][]string{
		"switchsim.Stats":     unboundCounters(&sw, sw.Rows()),
		"nicsim.RuntimeStats": unboundCounters(&nic, nic.Rows()),
		"faults.Stats":        unboundCounters(&fs, fs.Rows()),
	} {
		if len(missing) > 0 {
			t.Errorf("%s: counters with no row: %v", name, missing)
		}
	}
	// The check bites: a struct with a forgotten scalar and a half-bound
	// array is reported field by field; its int gauge is not a counter.
	var fixture struct {
		Bound, Forgotten uint64
		ByCause          [2]uint64
		Live             int
	}
	got := unboundCounters(&fixture, []obs.Row{{Word: &fixture.Bound}, {Word: &fixture.ByCause[0]}})
	if want := []string{"Forgotten", "ByCause[1]"}; !reflect.DeepEqual(got, want) {
		t.Errorf("fixture: unbound = %v, want %v", got, want)
	}
}

// assertRowsScraped requires every row's series in snap to read exactly
// the row's word.
func assertRowsScraped(t *testing.T, snap *obs.Snapshot, rows []obs.Row) {
	t.Helper()
	for _, r := range rows {
		var labels []string
		for _, l := range r.Labels {
			labels = append(labels, l.Value)
		}
		if v, ok := snap.Value(r.Name, labels...); !ok || v != *r.Word {
			t.Errorf("%s%v scrapes %d (registered=%v), its stats word reads %d", r.Name, labels, v, ok, *r.Word)
		}
	}
}

// TestRowsMatchStatsUnderFaults holds the two bookkeepings together
// where they are busiest: a 4-worker replay under every fault kind. At
// the flush barrier every bound row's merged series equals the merged
// stats word — including the EMEM drops no series carried before.
func TestRowsMatchStatsUnderFaults(t *testing.T) {
	cfg := trace.CampusConfig
	cfg.Flows = 600
	tr := trace.Generate(cfg, 77)
	popts := DefaultParallelOptions()
	popts.Workers = 4
	popts.Obs = obsTestOptions()
	popts.Faults = &faults.Plan{Seed: 5, Rate: 0.05, Kinds: faults.AllKinds}
	pe, err := NewParallel(popts, apps.Kitsune(), func(feature.Vector) {})
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
	snap := pe.ObsScrape()
	sw, nic, fs := pe.SwitchStats(), pe.NICStats(), pe.FaultStats()
	assertRowsScraped(t, snap, sw.Rows())
	assertRowsScraped(t, snap, nic.Rows())
	assertRowsScraped(t, snap, fs.Rows())
	if nic.EMEMDrops == 0 || fs.Quarantined == 0 || fs.Retries == 0 || fs.Injected[faults.KindEMEMFail] == 0 {
		t.Errorf("vacuous campaign: nic=%+v faults=%v", nic, fs)
	}
}

// TestWaivedPolicyClampsOnMetrics: the saturation counters planprove's
// verdicts are cross-checked against (polgen/soundness.go reads them
// off RuntimeStats) are on /metrics. NPOD ships with a hist-range
// waiver, so a plain replay trips the clamp.
func TestWaivedPolicyClampsOnMetrics(t *testing.T) {
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
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, fe.ObsScrape()); err != nil {
		t.Fatal(err)
	}
	nic := fe.NICStats()
	if nic.RangeClamps == 0 {
		t.Fatalf("vacuous: the waived plan tripped no range clamp: %+v", nic)
	}
	for _, line := range []string{
		fmt.Sprintf("superfe_nic_range_clamps_total %d\n", nic.RangeClamps),
		fmt.Sprintf("superfe_nic_sat_inputs_total %d\n", nic.SatInputs),
	} {
		if !bytes.Contains(prom.Bytes(), []byte(line)) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

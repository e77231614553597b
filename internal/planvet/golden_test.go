package planvet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"superfe/examples/policies"
	"superfe/internal/apps"
	"superfe/internal/flowkey"
	"superfe/internal/packet"
	"superfe/internal/policy"
	"superfe/internal/streaming"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCompare checks got against testdata/<name>, rewriting the
// file under -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// feasibleReport is a small hand-built plan that passes both phases.
func feasibleReport(t *testing.T) *Report {
	t.Helper()
	pol := policy.New("golden-ok").
		Filter(policy.FieldPred{Field: packet.FieldSize, Op: policy.CmpLe, Value: 1500}).
		GroupBy(flowkey.GranFlow).
		Map("one", policy.SrcNone, policy.MapOne).
		Reduce("one", policy.RF(streaming.FSum)).
		Reduce("size", policy.RF(streaming.FMean), policy.RF(streaming.FMax)).
		Collect().
		MustBuild()
	r, err := CheckPolicy(DefaultModel(), "golden-ok", pol)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// infeasibleReport seeds a reversed granularity chain plus an
// over-budget NIC state, producing multiple resource findings.
func infeasibleReport(t *testing.T) *Report {
	t.Helper()
	pol := policy.New("golden-bad").
		GroupBy(flowkey.GranHost).
		Reduce("size", policy.RF(streaming.FSum)).
		GroupBy(flowkey.GranSocket).
		Reduce("size", policy.RF(streaming.FSum)).
		Collect().
		MustBuild()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the compiled chain (Compile always ChainSorts) and blow
	// the EMEM budget on the first state.
	plan.Switch.CG, plan.Switch.FG = plan.Switch.FG, plan.Switch.CG
	for i, j := 0, len(plan.Switch.Chain)-1; i < j; i, j = i+1, j-1 {
		plan.Switch.Chain[i], plan.Switch.Chain[j] = plan.Switch.Chain[j], plan.Switch.Chain[i]
	}
	plan.NIC.StateSpecs = append([]policy.StateSpec(nil), plan.NIC.StateSpecs...)
	plan.NIC.StateSpecs[0].Bytes = 2 << 20
	return Check(DefaultModel(), "golden-bad", plan)
}

// witnessReport is resource-feasible but fails the value-range phase
// with a replayable histogram witness.
func witnessReport(t *testing.T) *Report {
	t.Helper()
	pol := policy.New("golden-wit").
		Filter(policy.TCPExists()).
		GroupBy(flowkey.GranFlow).
		Map("ipt", policy.SrcField(packet.FieldTimestamp), policy.MapIPT).
		Reduce("ipt", policy.RFHist(64, 8)).
		Collect().
		MustBuild()
	r, err := CheckPolicy(DefaultModel(), "golden-wit", pol)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReportGoldens pins the exact terminal rendering of the three
// report shapes superfe-vet -plans prints: feasible, infeasible (the
// "  FAIL <resource>: <detail>" problem-matcher lines), and a
// range-witness report (the "  PROVE <sev> <class> <site>: <detail>"
// phase-2 lines).
func TestReportGoldens(t *testing.T) {
	goldenCompare(t, "report_feasible.txt", []byte(feasibleReport(t).String()))
	goldenCompare(t, "report_infeasible.txt", []byte(infeasibleReport(t).String()))
	goldenCompare(t, "report_witness.txt", []byte(witnessReport(t).String()))
}

// TestReportJSONGoldens pins the machine-readable proof report,
// including the witness packets a rejected plan replays.
func TestReportJSONGoldens(t *testing.T) {
	for name, r := range map[string]*Report{
		"report_feasible.json":   feasibleReport(t),
		"report_infeasible.json": infeasibleReport(t),
		"report_witness.json":    witnessReport(t),
	} {
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		goldenCompare(t, name, append(b, '\n'))
	}
}

// TestFindingsDeterministic is the ordering regression: repeated
// checks of a plan with several findings must render identically,
// with findings sorted by resource then message.
func TestFindingsDeterministic(t *testing.T) {
	first := infeasibleReport(t)
	for i := 0; i < 8; i++ {
		r := infeasibleReport(t)
		if r.String() != first.String() {
			t.Fatalf("run %d renders differently:\n%s\nvs\n%s", i, r, first)
		}
	}
	if len(first.Findings) < 2 {
		t.Fatalf("seed produced %d findings, want ≥ 2", len(first.Findings))
	}
	for i := 1; i < len(first.Findings); i++ {
		a, b := first.Findings[i-1], first.Findings[i]
		if a.Resource > b.Resource || (a.Resource == b.Resource && a.Detail > b.Detail) {
			t.Errorf("findings out of order at %d: %q ≥ %q", i, a, b)
		}
	}
}

// TestCatalogReportGoldens pins the full report — resource figures,
// findings, proved ranges and witness packets — of every catalog
// application and every example policy, the plans the tree ships.
func TestCatalogReportGoldens(t *testing.T) {
	var reports []*Report
	for _, e := range apps.Catalog() {
		r, err := CheckPolicy(DefaultModel(), e.Name, e.Build())
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	for _, e := range policies.Registry() {
		r, err := CheckPolicy(DefaultModel(), e.Name, e.Build())
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "catalog_reports.json", append(b, '\n'))
}

package nicsim

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"superfe/internal/apps"
	"superfe/internal/policy"
)

// goldenCompare checks got against testdata/<name>, rewriting the file
// under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s moved:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestModelledNumbersGolden pins every number the architectural model
// derives from a catalog plan: the placement ILP's level per state and
// its objective, the cost model's cycles per cell at each Figure 17
// step, and the Figure 15 naive price at a fixed mean group length.
// None of them reads a trace, so a change to how the plan is compiled
// or walked must leave every line as it is.
func TestModelledNumbersGolden(t *testing.T) {
	steps := []struct {
		name string
		opt  Optimizations
	}{
		{"none", Optimizations{}},
		{"hash", Optimizations{ReuseSwitchHash: true}},
		{"thread", Optimizations{ReuseSwitchHash: true, Threading: true}},
		{"all", AllOptimizations()},
	}
	num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var got strings.Builder
	for _, app := range apps.Catalog() {
		plan, err := policy.Compile(app.Build())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		pl, err := Place(cfg, plan.NIC.StateSpecs)
		if err != nil {
			t.Fatal(err)
		}
		levels := make([]string, len(pl.Level))
		for i, l := range pl.Level {
			levels[i] = l.String()
		}
		fmt.Fprintf(&got, "%s place cost_per_pkt=%s levels=%s\n", app.Name, num(pl.CostPerPkt), strings.Join(levels, ","))
		fmt.Fprintf(&got, "%s cycles_per_cell", app.Name)
		for _, st := range steps {
			cfg := DefaultConfig()
			cfg.Opt = st.opt
			pl, err := Place(cfg, plan.NIC.StateSpecs)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, " %s=%s", st.name, num(NewCostModel(cfg, plan.NIC, pl).CyclesPerCell()))
		}
		fmt.Fprintf(&got, "\n%s naive_cycles_per_cell@16=%s\n", app.Name, num(NewCostModel(cfg, plan.NIC, pl).NaiveCyclesPerCell(16)))
	}
	goldenCompare(t, "modelled.golden", got.String())
}

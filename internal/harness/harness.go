// Package harness regenerates every table and figure of the paper's
// evaluation (§8) from the simulators in this repository. Each
// experiment returns a Table — headers plus rows — that cmd/experiments
// prints and EXPERIMENTS.md records against the paper's numbers.
//
// The experiments honour a scale knob so the same code runs as a
// seconds-long smoke test in CI (Quick) and as the full-size
// regeneration (Full).
package harness

import (
	"fmt"
	"strings"

	"superfe/internal/trace"
)

// Table is one regenerated table or figure: rows of pre-formatted
// cells.
type Table struct {
	ID      string // e.g. "table2", "fig12"
	Title   string
	Note    string // paper-reported values / caveats
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render pretty-prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// Quick shrinks workloads so the full suite runs in seconds (CI,
	// go test).
	Quick Scale = iota
	// Full runs the paper-sized workloads.
	Full
)

// Seed is the deterministic seed every experiment derives its
// workloads from.
const Seed = 42

// workloads returns the three Table 2 traces at the requested scale.
func workloads(s Scale) []*trace.Trace {
	cfgs := []trace.WorkloadConfig{trace.MAWIConfig, trace.EnterpriseConfig, trace.CampusConfig}
	var out []*trace.Trace
	for i, cfg := range cfgs {
		if s == Quick {
			cfg.Flows /= 10
		}
		out = append(out, trace.Generate(cfg, Seed+int64(i)))
	}
	return out
}

// fmtF formats a float at the given precision.
func fmtF(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// fmtPct formats a fraction as a percentage.
func fmtPct(v float64) string {
	return fmt.Sprintf("%.2f%%", v*100)
}

// registry is every experiment, in paper order: its id and how to run
// it at a scale. IDs, All and ByID all read it.
var registry = []struct {
	id  string
	run func(Scale) Table
}{
	{"table2", Table2},
	{"table3", func(Scale) Table { return Table3() }},
	{"table4", func(Scale) Table { return Table4() }},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"fig15", Fig15},
	{"fig16", func(Scale) Table { return Fig16() }},
	{"fig17", func(Scale) Table { return Fig17() }},
}

// IDs lists the experiment ids in paper order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, x := range registry {
		ids[i] = x.id
	}
	return ids
}

// All runs every experiment at the given scale, in paper order.
func All(s Scale) []Table {
	out := make([]Table, len(registry))
	for i, x := range registry {
		out[i] = x.run(s)
	}
	return out
}

// ByID returns the experiment with the given id (case-insensitive), or
// false.
func ByID(id string, s Scale) (Table, bool) {
	run, ok := lookup(id)
	if !ok {
		return Table{}, false
	}
	return run(s), true
}

// lookup resolves an id (case-insensitive) without running anything.
func lookup(id string) (func(Scale) Table, bool) {
	for _, x := range registry {
		if strings.EqualFold(x.id, id) {
			return x.run, true
		}
	}
	return nil, false
}

// must panics on experiment-harness errors. The harness drives the
// simulators with configurations it constructed itself, so any error
// here is a broken invariant in this repository, not bad user input.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("superfe: harness: %w", err))
	}
}

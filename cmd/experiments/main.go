// Command experiments regenerates the tables and figures of the
// SuperFE paper's evaluation (§8) from the simulators in this
// repository.
//
// Usage:
//
//	experiments                  # run everything at full scale
//	experiments -quick           # CI-sized workloads
//	experiments -exp fig12       # one experiment
//	experiments -list            # list experiment ids
//	experiments -obs-dump out/   # write telemetry artefacts and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"superfe/internal/apps"
	"superfe/internal/harness"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

func main() {
	quick := flag.Bool("quick", false, "run CI-sized workloads")
	exp := flag.String("exp", "", "run a single experiment (table2..table4, fig9..fig17)")
	list := flag.Bool("list", false, "list experiment ids")
	obsDump := flag.String("obs-dump", "", "replay with telemetry enabled and write metrics.prom/metrics.json/series.csv/timelines.json into this directory")
	obsPolicy := flag.String("obs-policy", "Kitsune", "policy for -obs-dump")
	obsWorkers := flag.Int("obs-workers", 1, "worker count for -obs-dump (>1 shards the engine across worker goroutines)")
	flag.Parse()
	if *obsWorkers < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -obs-workers %d: want at least 1\n", *obsWorkers)
		os.Exit(2)
	}

	if *obsDump != "" {
		var pol *policy.Policy
		for _, e := range apps.Catalog() {
			if strings.EqualFold(e.Name, *obsPolicy) {
				pol = e.Build()
			}
		}
		if pol == nil {
			fmt.Fprintf(os.Stderr, "experiments: unknown policy %q\n", *obsPolicy)
			os.Exit(2)
		}
		tr := trace.Generate(trace.EnterpriseConfig, harness.Seed)
		if err := harness.ObsDump(*obsDump, pol, tr, *obsWorkers); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry artefacts written to %s\n", *obsDump)
		return
	}

	if *list {
		for _, id := range harness.IDs() {
			fmt.Println(id)
		}
		return
	}
	scale := harness.Full
	if *quick {
		scale = harness.Quick
	}
	if *exp != "" {
		t, ok := harness.ByID(*exp, scale)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		fmt.Println(t.Render())
		return
	}
	for _, t := range harness.All(scale) {
		fmt.Println(t.Render())
	}
}

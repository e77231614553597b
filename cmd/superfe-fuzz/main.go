// Command superfe-fuzz is the policy-space differential compiler
// fuzzer: it generates structurally valid random policies paired
// with randomized hardware envelopes, classifies each plan with
// planvet, and holds every feasible plan to polgen's table of legs on
// the same seeded trace: the engine at one worker (exact sequence and
// stats), sharded behind SPSC rings (multiset and conservation
// stats), telemetry on against off and a scoped fault campaign where
// the spec carries one, and the software baseline. A planvet-accepted
// plan that trips the switch simulator's resource-overflow clamp also
// fails the run — the static model and the simulator must agree about
// the envelope.
//
// Cases whose run hits FG-table collisions (FGOverwrites > 0) are
// counted as approximate and skip the sharded and baseline legs:
// collision misattribution is a documented lossy approximation, and
// the inline engine's single FG table collides on different keys than
// the sharded engine's per-shard tables.
//
// Every case also runs the planprove soundness cross-check: a plan
// proved saturation-free must not trip any simulator saturation
// clamp, and every confirmed value-range witness must replay to an
// actual clamp trip on a fresh engine. A third of the
// single-granularity cases carry a scoped fault campaign, asserting
// out-of-scope bit-equivalence and (for non-corrupting kinds) clamp
// soundness under faults.
//
// The case count honours the SUPERFE_FUZZ_N environment variable
// when -n is not given, so nightly CI can widen the campaign without
// touching the per-PR budget.
//
// CI runs a fixed-seed campaign on every PR:
//
//	go run ./cmd/superfe-fuzz -seed 1 -n 200
//
// On failure the offending spec is shrunk to a minimal reproducer
// and written to -corpus (default internal/polgen/testdata/corpus),
// where TestCorpusReplay picks it up on every plain `go test` — so
// a divergence found once stays fixed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"superfe/internal/polgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("superfe-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "campaign seed; case i is Generate(seed, i)")
	n := fs.Int("n", defaultCases(), "number of cases (default honours $SUPERFE_FUZZ_N)")
	flows := fs.Int("flows", 0, "trace flow count per case (0 = default)")
	corpus := fs.String("corpus", filepath.Join("internal", "polgen", "testdata", "corpus"),
		"directory shrunk reproducers are written to (empty disables)")
	verbose := fs.Bool("v", false, "log every case, not just failures")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := polgen.RunOptions{Flows: *flows}
	feasible, infeasible, approx, failures := 0, 0, 0, 0
	witnesses, faulted := 0, 0
	for i := 0; i < *n; i++ {
		spec := polgen.Generate(*seed, i)
		out := polgen.Run(spec, opts)
		switch {
		case out.Feasible:
			feasible++
		case out.BuildErr == "":
			infeasible++
		}
		if out.Approx {
			approx++
		}
		witnesses += out.Witnesses
		if out.Faulted() {
			faulted++
		}
		if *verbose {
			fmt.Fprintf(stdout, "case %d (%s): feasible=%v approx=%v vectors=%d witnesses=%d legs=%v\n",
				i, spec.Name, out.Feasible, out.Approx, out.Vectors, out.Witnesses, out.Legs)
		}
		if !out.Failed() {
			continue
		}
		failures++
		fmt.Fprintf(stderr, "superfe-fuzz: case %d (%s) FAILED: %s\n", i, spec.Name, failureReason(out))
		min := polgen.Shrink(spec, func(s polgen.Spec) bool {
			return polgen.Run(s, opts).Failed()
		})
		min.Name = fmt.Sprintf("shrunk-%d-%d", *seed, i)
		b, err := json.MarshalIndent(min, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "superfe-fuzz: marshal reproducer:", err)
			continue
		}
		b = append(b, '\n')
		if *corpus != "" {
			path := filepath.Join(*corpus, min.Name+".json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				fmt.Fprintln(stderr, "superfe-fuzz: write reproducer:", err)
			} else {
				fmt.Fprintf(stderr, "superfe-fuzz: minimal reproducer written to %s — commit it so TestCorpusReplay guards the fix\n", path)
			}
		}
		fmt.Fprintf(stderr, "superfe-fuzz: minimal reproducer:\n%s", b)
	}

	fmt.Fprintf(stdout, "superfe-fuzz: %d case(s): %d feasible (ran differential), %d infeasible (classified), %d approximate (FG collisions, sharded and baseline legs skipped), %d witness replay(s), %d faulted run(s), %d failure(s)\n",
		*n, feasible, infeasible, approx, witnesses, faulted, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// defaultCases is the -n default: 200 for the per-PR budget, or
// whatever SUPERFE_FUZZ_N says (nightly CI raises it).
func defaultCases() int {
	if s := os.Getenv("SUPERFE_FUZZ_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 200
}

func failureReason(out *polgen.Outcome) string {
	switch {
	case out.BuildErr != "":
		return "generated spec does not build: " + out.BuildErr
	case out.Overflow:
		return "planvet accepted the plan but the switch resource estimate overflowed its clamp"
	case out.WitnessFailed != "":
		return "witness soundness: " + out.WitnessFailed
	default:
		return "leg " + out.Divergence
	}
}

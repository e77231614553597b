// Command bench is the repository's benchmark (see README.md beside
// it and BENCHMARK.json at the root). Its unit of work is the cold
// pass: deploy a fresh engine, feed it a whole generated trace through
// the front door, Flush, and wait for the last vector. Every timed
// number is gated by a differential correctness check first.
//
//	go run ./bench                                   # all workloads, both runs
//	go run ./bench --workload npod-mawi --seed 7 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"superfe/internal/harness"
)

// settings is one invocation. flowScale is not a flag: the smoke test
// shrinks the traces with it, everything else runs them whole.
type settings struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int // 0: end-to-end only, 1: per-layer only, -1: both
	out       string
	flowScale float64
}

// rounds is how many interleaved slices each workload's --seconds is
// cut into when all workloads run together, so a noisy-neighbour burst
// lands on all of them.
const rounds = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	s := settings{flowScale: 1}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&s.workload, "workload", "", "run this workload only and end with the result line (default: all of them)")
	fs.Int64Var(&s.seed, "seed", harness.Seed, "trace generator seed")
	fs.Float64Var(&s.seconds, "seconds", 10, "seconds of measurement per workload and run")
	fs.IntVar(&s.trace, "trace", -1, "0: untraced end-to-end run, 1: traced per-layer run (default: both)")
	fs.StringVar(&s.out, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || s.seconds <= 0 || s.trace < -1 || s.trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	if err := execute(s, stdout); err != nil {
		fmt.Fprintln(stderr, "bench: FAIL:", err)
		return 1
	}
	return 0
}

// result is one workload's section of bench/out/result.json.
type result struct {
	Workload  string    `json:"workload"`
	Reference reference `json:"reference"`
	Passes    int       `json:"passes"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	EndToEnd  []metric  `json:"end_to_end,omitempty"`
	Raw       []metric  `json:"end_to_end_raw,omitempty"`
	PerLayer  []metric  `json:"per_layer,omitempty"`
}

// report is bench/out/result.json.
type report struct {
	GitSHA     string   `json:"git_sha"`
	GoVersion  string   `json:"go_version"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Rounds     int      `json:"rounds"`
	CalibNS    float64  `json:"calib_ns_per_op"`
	Note       string   `json:"note"`
	Workloads  []result `json:"workloads"`
}

// resultLine is the last line of standard output in --workload mode.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted uint64              `json:"attempted"`
	Failed    uint64              `json:"failed"`
	Metrics   map[string]lineItem `json:"metrics"`
}

type lineItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(s settings, stdout io.Writer) error {
	todo := workloads
	if s.workload != "" {
		w, ok := findWorkload(s.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", s.workload)
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(s.out, 0o755); err != nil {
		return err
	}
	rep := report{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: s.seed, Seconds: s.seconds, Rounds: 1, CalibNS: calibrate(),
		Note: "closed loop, one producer; caches start empty every pass; serve workload runs on host TCP loopback, no real link, and its CPU time and allocations include the bench's own two clients",
	}
	fmt.Fprintf(stdout, "bench: git=%s %s cpus=%d GOMAXPROCS=%d seed=%d seconds=%g calib=%.3f ns/op\n",
		rep.GitSHA, rep.GoVersion, rep.CPUs, rep.GOMAXPROCS, rep.Seed, rep.Seconds, rep.CalibNS)

	runners := make([]*runner, 0, len(todo))
	defer func() {
		for _, r := range runners {
			r.close()
		}
	}()
	for _, w := range todo {
		r, err := newRunner(w, s.seed, s.flowScale)
		if err != nil {
			return err
		}
		runners = append(runners, r)
		// Verification before timing, on every run; the repeats that
		// make setup_s a median belong to the end-to-end run.
		repeats, minTime := setupRepeats, setupMinTime
		if s.trace == 1 || s.flowScale != 1 {
			repeats, minTime = 1, 0
		}
		if err := r.verifyAndSetup(repeats, minTime); err != nil {
			return err
		}
	}

	if s.trace != 1 {
		for _, r := range runners {
			if err := r.measureHeap(); err != nil {
				return err
			}
		}
		slices := 1
		if len(runners) > 1 {
			slices, rep.Rounds = rounds, rounds
		}
		d := time.Duration(s.seconds / float64(slices) * float64(time.Second))
		for i := 0; i < slices; i++ {
			for _, r := range runners {
				if err := r.slice(d); err != nil {
					return err
				}
			}
		}
	}

	var failures []string
	for _, r := range runners {
		res := result{Workload: r.w.Name, Reference: r.ref, Passes: len(r.good), Attempted: r.attempted, Failed: r.failed}
		if s.trace != 1 {
			if len(r.good) == 0 {
				return fmt.Errorf("%s: no timed pass passed its checks", r.w.Name)
			}
			res.EndToEnd, res.Raw = r.endToEnd()
			if r.failed > 0 {
				failures = append(failures, fmt.Sprintf("%s: %d of %d operations failed", r.w.Name, r.failed, r.attempted))
			}
		}
		if s.trace != 0 {
			layers, tr, err := r.perLayer(time.Duration(s.seconds*float64(time.Second)), rep.CalibNS, s.flowScale == 1)
			if layers == nil {
				return err
			}
			if err != nil { // the metrics stand, a check on them failed
				failures = append(failures, err.Error())
			}
			res.PerLayer = layers
			path := filepath.Join(s.out, "trace-"+r.w.Name+".json")
			tf := traceFile{Workload: r.w.Name, Seed: s.seed, Clock: "host monotonic ns since tracer start", Spans: tr.spans}
			if err := writeJSON(path, tf); err != nil {
				return err
			}
		}
		printResult(stdout, res)
		rep.Workloads = append(rep.Workloads, res)
	}
	if err := writeJSON(filepath.Join(s.out, "result.json"), rep); err != nil {
		return err
	}

	if s.workload != "" {
		res := rep.Workloads[0]
		line := resultLine{Correct: len(failures) == 0, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]lineItem{}}
		for _, m := range append(res.EndToEnd, res.PerLayer...) {
			line.Metrics[m.Name] = lineItem{Value: m.Value, Unit: m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "\n== %s ==\n", res.Workload)
	fmt.Fprintf(w, "verified: front door = sequential engine (digest %s); baseline.Extractor: %s; sim_digest %s\n",
		res.Reference.Digest, res.Reference.Baseline, res.Reference.SimDigest)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if len(res.EndToEnd) > 0 {
		ratio := float64(res.Failed) / float64(max(res.Attempted, 1))
		fmt.Fprintf(tw, "end to end (untraced, %d passes)\t\t\t\n", res.Passes)
		printMetrics(tw, res.EndToEnd)
		fmt.Fprintf(tw, "the same passes in host time (moves with the machine; not bounded)\t\t\t\n")
		printMetrics(tw, res.Raw)
		fmt.Fprintf(tw, "  failed_ratio\t%g\tratio\t%d of %d\n", ratio, res.Failed, res.Attempted)
	}
	if len(res.PerLayer) > 0 {
		fmt.Fprintf(tw, "per layer (traced run; host ns unless the unit says sim-)\t\t\t\n")
		printMetrics(tw, res.PerLayer)
	}
	tw.Flush()
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		detail := ""
		if m.Summary != nil {
			detail = m.Summary.String()
		}
		fmt.Fprintf(w, "  %s\t%.6g\t%s\t%s\n", m.Name, m.Value, m.Unit, detail)
	}
}

// gitSHA names the measured commit; "unknown" outside a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Command superfe deploys one of the bundled application policies on
// the simulated switch+SmartNIC pipeline, replays a synthetic
// workload through it, and writes the extracted feature vectors as
// CSV — the command-line face of the library.
//
// Usage:
//
//	superfe -list                         # list bundled policies
//	superfe -policy Kitsune -show         # print policy source + programs
//	superfe -policy NPOD -trace campus    # run and emit vectors as CSV
//	superfe -policy TF -trace wfp -stats  # pipeline statistics only
//	superfe -policy Kitsune -trace enterprise -stats \
//	    -workers 4 -verify-wire -metrics-addr :9090   # serve telemetry
//
// With -metrics-addr the server is the full admin/debug surface:
// /metrics, /status, /snapshot, /spans, /flightrecorder and
// /debug/pprof/. -flightrec-dir collects anomaly-triggered
// flight-recorder dumps.
//
// Two subcommands run the resident service mode instead of a one-shot
// replay:
//
//	superfe serve -listen unix:/tmp/sfe.sock -admin 127.0.0.1:9090 \
//	    -tenants edge=NPOD,lab=Kitsune     # multi-tenant server
//	superfe ingest -connect unix:/tmp/sfe.sock -tenant edge \
//	    -trace enterprise                  # stream a workload into it
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"superfe/internal/apps"
	"superfe/internal/core"
	"superfe/internal/faults"
	"superfe/internal/feature"
	"superfe/internal/obs"
	"superfe/internal/policy"
	"superfe/internal/trace"
)

func main() {
	// Subcommands take over before the flat flag CLI: `superfe serve`
	// is the resident multi-tenant service, `superfe ingest` its trace
	// feeder (see serve.go).
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "ingest":
			os.Exit(runIngest(os.Args[2:]))
		}
	}
	list := flag.Bool("list", false, "list bundled policies")
	polName := flag.String("policy", "", "bundled policy name (see -list)")
	show := flag.Bool("show", false, "print the policy source and generated programs")
	traceName := flag.String("trace", "enterprise", "workload: mawi, enterprise, campus, wfp, botnet, covert, mirai, osscan, ssdp")
	seed := flag.Int64("seed", 42, "trace generator seed")
	statsOnly := flag.Bool("stats", false, "print pipeline statistics instead of vectors")
	maxVecs := flag.Int("n", 0, "emit the first n vectors in emission order (0 = all)")
	workers := flag.Int("workers", 1, "shard the pipeline across n switch+NIC pairs (>1 runs them on worker goroutines; 1 runs the engine inline)")
	verifyWire := flag.Bool("verify-wire", false, "round-trip every switch→NIC message through the binary wire codec; exit non-zero on any mismatch")
	faultSpec := flag.String("faults", "", "seeded fault-injection plan, e.g. seed=7,rate=0.01,kinds=drop+corrupt,scope=0:3fffffff (kinds also accept wire/switch/nic/all; see internal/faults)")
	obsOn := flag.Bool("obs", false, "enable the telemetry subsystem (implied by -metrics-addr and -metrics-out)")
	metricsAddr := flag.String("metrics-addr", "", "serve telemetry over HTTP on this address (e.g. :9090); the process stays alive after the replay for scraping")
	metricsOut := flag.String("metrics-out", "", "write the final metrics as a Prometheus text dump to this file (- = stdout)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the replay to this file (inspect with go tool pprof)")
	memProf := flag.String("memprofile", "", "write a heap profile taken after the replay to this file")
	flightrecDir := flag.String("flightrec-dir", "", "write anomaly-triggered flight-recorder dumps (JSON) into this directory, retention-bounded")
	flightrecOut := flag.String("flightrec-out", "", "write a final on-demand flight-recorder dump to this file after the replay (- = stdout)")
	flag.Parse()

	if *list {
		for _, e := range apps.Catalog() {
			p := e.Build()
			fmt.Printf("%-10s %-26s dim=%d loc=%d\n", e.Name, e.Objective, p.FeatureDim(), p.LinesOfCode())
		}
		return
	}
	if *polName == "" {
		fmt.Fprintln(os.Stderr, "superfe: -policy required (try -list)")
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "superfe: -workers %d: want at least 1\n", *workers)
		os.Exit(2)
	}
	if *maxVecs < 0 {
		fmt.Fprintf(os.Stderr, "superfe: -n %d: want 0 (all) or more\n", *maxVecs)
		os.Exit(2)
	}
	var pol *policy.Policy
	for _, e := range apps.Catalog() {
		if strings.EqualFold(e.Name, *polName) {
			pol = e.Build()
		}
	}
	if pol == nil {
		fmt.Fprintf(os.Stderr, "superfe: unknown policy %q\n", *polName)
		os.Exit(2)
	}

	if *show {
		plan, err := policy.Compile(pol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "superfe:", err)
			os.Exit(1)
		}
		fmt.Println(pol.Source())
		fmt.Println(plan.P4Listing())
		fmt.Println(plan.MicroCListing())
		return
	}

	tr, err := trace.Named(*traceName, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe:", err)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "superfe:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "superfe:", err)
			os.Exit(1)
		}
	}

	emitted := 0
	sink := func(v feature.Vector) {
		if *statsOnly || (*maxVecs > 0 && emitted >= *maxVecs) {
			emitted++
			return
		}
		emitted++
		cells := make([]string, 0, len(v.Values)+1)
		cells = append(cells, v.Key.String())
		for _, x := range v.Values {
			cells = append(cells, strconv.FormatFloat(x, 'g', 8, 64))
		}
		fmt.Println(strings.Join(cells, ","))
	}
	opts := core.DefaultOptions()
	opts.VerifyWire = *verifyWire
	if *faultSpec != "" {
		fp, err := faults.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "superfe:", err)
			os.Exit(2)
		}
		opts.Faults = fp
	}
	if *metricsAddr != "" || *metricsOut != "" {
		*obsOn = true
	}
	if *obsOn {
		opts.Obs.Enabled = true
	}
	opts.FlightRec.Dir = *flightrecDir

	// The constructor is the only thing -workers chooses: one worker
	// runs the engine inline, more shard it behind rings.
	var fe *core.Engine
	if *workers > 1 {
		popts := core.DefaultParallelOptions()
		popts.Options = opts
		popts.Workers = *workers
		// Deterministic merge keeps the CSV stable run-to-run.
		popts.DeterministicMerge = true
		fe, err = core.NewParallel(popts, pol, sink)
	} else {
		fe, err = core.New(opts, pol, sink)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe:", err)
		os.Exit(1)
	}
	src := fe.ObsSource()
	serveMetrics(*metricsAddr, src)
	for i := range tr.Packets {
		fe.Process(&tr.Packets[i])
	}
	if err := fe.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "superfe:", err)
		os.Exit(1)
	}
	swStats, nicStats, faultStats, degraded := fe.SwitchStats(), fe.NICStats(), fe.FaultStats(), fe.Degraded()
	if err := fe.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "superfe:", err)
		os.Exit(1)
	}

	// Profiles cover exactly the replay (not trace generation, not the
	// post-run metrics serving).
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintln(os.Stderr, "superfe:", err)
			os.Exit(1)
		}
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, src); err != nil {
			fmt.Fprintln(os.Stderr, "superfe: metrics dump:", err)
			os.Exit(1)
		}
	}
	if *flightrecOut != "" {
		if err := writeFlightRec(*flightrecOut, src); err != nil {
			fmt.Fprintln(os.Stderr, "superfe: flight-recorder dump:", err)
			os.Exit(1)
		}
	}
	if *statsOnly {
		fmt.Printf("trace      : %s (%s)\n", tr.Name, tr.Stats())
		fmt.Printf("workers    : %d (per-shard stats merged)\n", fe.Workers())
		fmt.Printf("switch     : %s\n", swStats)
		fmt.Printf("nic        : msgs=%d mgpvs=%d cells=%d vectors=%d groups=%d\n",
			nicStats.Msgs, nicStats.MGPVs, nicStats.Cells, nicStats.Vectors, nicStats.GroupsLive)
		fmt.Printf("aggregation: %.4f (%.2f%% reduction)\n", swStats.AggregationRatio(), 100*(1-swStats.AggregationRatio()))
		fmt.Printf("vectors    : %d of dim %d\n", emitted, pol.FeatureDim())
		if opts.Faults != nil {
			fmt.Printf("faults     : %v degraded-now=%v\n", faultStats, degraded)
		}
	}

	if *metricsAddr != "" {
		fmt.Fprintf(os.Stderr, "superfe: replay done; serving telemetry on http://%s/metrics (also /status /snapshot /spans /flightrecorder /debug/pprof/) — Ctrl-C to exit\n", *metricsAddr)
		select {}
	}
}

// serveMetrics starts the telemetry HTTP server (no-op for an empty
// address). Every endpoint is race-safe during the replay: scrapes are
// lock-free, everything else is the engine's view as of its last
// barrier — exact once the replay has flushed.
func serveMetrics(addr string, src obs.Source) {
	if addr == "" {
		return
	}
	// The live server is the debug surface: mount /debug/pprof/ next to
	// the telemetry and admin endpoints.
	src.Pprof = true
	//superfe:goroutine-ok process-lifetime listener: the CLI blocks on select{} until Ctrl-C, so the server's only shutdown edge is process exit
	go func() {
		if err := http.ListenAndServe(addr, obs.NewHTTPHandler(src)); err != nil {
			fmt.Fprintln(os.Stderr, "superfe: metrics server:", err)
			os.Exit(1)
		}
	}()
}

// writeHeapProfile forces a GC (so the profile reflects live state,
// not garbage awaiting collection) and writes the heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// writeMetrics dumps the final merged snapshot in Prometheus text
// format to path ("-" = stdout).
func writeMetrics(path string, src obs.Source) error {
	snap := src.Scrape()
	if snap == nil {
		return fmt.Errorf("telemetry disabled")
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return obs.WritePrometheus(w, snap)
}

// writeFlightRec dumps a final on-demand flight-recorder capture as
// JSON to path ("-" = stdout).
func writeFlightRec(path string, src obs.Source) error {
	if src.FlightRec == nil {
		return fmt.Errorf("flight recorder disabled")
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return obs.WriteFlightRecJSON(w, src.FlightRec())
}

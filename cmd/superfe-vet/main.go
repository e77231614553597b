// Command superfe-vet runs SuperFE's project-specific vet suite —
// the analyzers in internal/lint that mechanically enforce the
// hot-path allocation, determinism, stats-merge and panic-discipline
// invariants. CI runs it on every PR; run it locally with:
//
//	go run ./cmd/superfe-vet ./...
//
// Usage:
//
//	superfe-vet [-analyzers a,b,...] [-json] [-fix-hints] [packages]
//	superfe-vet -plans [-json] [patterns]
//
// Packages default to ./... relative to the working directory. The
// exit status is 1 when any diagnostic is reported, 2 on driver
// errors.
//
// -plans switches from source analysis to plan feasibility: every
// registered policy (the Table 3 catalog in internal/apps plus the
// example registry in examples/policies) whose home package matches a
// pattern is compiled and checked against the switch/NIC hardware
// envelope (internal/planvet), and a per-plan cost report is printed.
// CI runs `superfe-vet -plans ./examples/...` so an example whose
// plan outgrows the pipeline fails the build with a diagnostic naming
// the violated resource.
//
// -prove (with -plans) additionally gates on the planprove
// value-range proofs: each plan's abstract-interpretation findings
// are printed with their concrete witnesses, matched against the
// documented waiver catalogs (apps.Waivers, policies.Waivers), and
// any unwaived warning-or-worse finding fails the run. CI runs
// `superfe-vet -plans -prove` so a plan that can saturate a register,
// clamp a histogram unexpectedly, or overflow a fixed-point lane is
// rejected with a value-range witness before it ships.
//
// -json emits findings (or plan reports under -plans, proofs
// included) as a JSON array on stdout for tooling; -fix-hints appends
// a remediation hint to each source finding and to each unwaived
// proof finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"superfe/examples/policies"
	"superfe/internal/apps"
	"superfe/internal/lint"
	"superfe/internal/lint/analysis"
	"superfe/internal/lint/loader"
	"superfe/internal/planprove"
	"superfe/internal/planvet"
	"superfe/internal/policy"
)

func main() {
	os.Exit(run())
}

func run() int {
	sel := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	plans := flag.Bool("plans", false, "check registered policy plans against the hardware model instead of analyzing source")
	prove := flag.Bool("prove", false, "with -plans: gate on the planprove value-range proofs (unwaived warnings fail)")
	jsonOut := flag.Bool("json", false, "emit findings (or plan reports) as JSON on stdout")
	hints := flag.Bool("fix-hints", false, "append a remediation hint to each finding")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: superfe-vet [-analyzers a,b] [-json] [-fix-hints] [packages]\n"+
			"       superfe-vet -plans [-prove] [-json] [-fix-hints] [patterns]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *plans {
		return runPlans(flag.Args(), *prove, *jsonOut, *hints)
	}
	if *prove {
		fmt.Fprintln(os.Stderr, "superfe-vet: -prove requires -plans")
		return 2
	}

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := all
	if *sel != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*sel, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "superfe-vet: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	prog, err := loader.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "superfe-vet:", err)
		return 2
	}
	targets := map[string]bool{}
	for _, t := range prog.Targets {
		targets[t] = true
	}

	type finding struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Message  string `json:"message"`
		Analyzer string `json:"analyzer"`
		Hint     string `json:"hint,omitempty"`
	}
	type seenKey struct {
		pos, msg string
	}
	seen := map[seenKey]bool{}
	var findings []finding
	for _, pkg := range prog.Packages {
		if !targets[pkg.Path] {
			continue
		}
		for _, a := range analyzers {
			a := a
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      prog.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
			}
			pass.Report = func(d analysis.Diagnostic) {
				p := prog.Fset.Position(d.Pos)
				k := seenKey{pos: p.String(), msg: d.Message + a.Name}
				// Cross-package traversal (hotpathalloc) can reach the
				// same callee from several roots; report each site once.
				if seen[k] {
					return
				}
				seen[k] = true
				f := finding{File: p.Filename, Line: p.Line, Col: p.Column, Message: d.Message, Analyzer: a.Name}
				if *hints {
					f.Hint = fixHints[a.Name]
				}
				findings = append(findings, f)
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "superfe-vet: %s: %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
		}
	}
	// Full-key sort: several analyzers can report at the same position,
	// and map-driven traversal inside an analyzer may emit them in any
	// order — the analyzer and message tiebreaks make the output (and
	// the problem-matcher annotations CI diffs) byte-stable across runs.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "superfe-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
			if f.Hint != "" {
				fmt.Printf("\thint: %s\n", f.Hint)
			}
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "superfe-vet: %d finding(s) in %d package(s)\n", len(findings), len(prog.Targets))
		return 1
	}
	if !*jsonOut {
		fmt.Printf("superfe-vet: %d package(s) clean (%d analyzers)\n", len(prog.Targets), len(analyzers))
	}
	return 0
}

// fixHints maps each analyzer to its standard remediation, printed
// under -fix-hints and carried in the JSON output.
var fixHints = map[string]string{
	"hotpathalloc":    "hoist the allocation out of the per-packet path (reuse a buffer, preallocate in the constructor) or waive an intentional one with //superfe:alloc-ok <reason>",
	"nowallclock":     "derive time from packet timestamps and order from sequence numbers; use a seeded rand.Rand; sort map keys before iterating or waive with //superfe:unordered <reason>",
	"goroutineleak":   "give the goroutine a shutdown edge — range over a channel that is closed, select on ctx.Done(), or signal a WaitGroup — or waive a process-lifetime worker with //superfe:goroutine-ok <reason>",
	"sinkretention":   "copy borrowed slices before storing them (dst = append(dst[:0], src...)); the extractor reuses the backing array after the sink returns; waive owned-message topologies with //superfe:retain-ok <reason>",
	"memmodelatomic":  "access the field through sync/atomic in every package that touches it (or guard all access with one mutex) and pass lock-bearing structs by pointer; construction-phase writes through a function-local value are exempt, other single-threaded phases waive with //superfe:atomic-ok <reason>",
	"memmodelrole":    "keep each SPSC sequence field written by exactly one side: move the write into a //superfe:producer or //superfe:consumer function (or annotate the writer with its real role); hold //superfe:padded structs by pointer everywhere (fields, slices, parameters) and make every pad a full _ [64]byte cache line",
	"memmodelpublish": "publish slot payloads with store-index-then-release: write the slot, then store the sequence atomically; read the sequence atomically before reading the slot; waive externally-ordered sites with //superfe:publish-ok <reason>",
}

// planEntry is one registered policy: the Table 3 catalog plus the
// example registry.
type planEntry struct {
	Name  string
	Pkg   string
	Build func() *policy.Policy
}

func planRegistry() []planEntry {
	var entries []planEntry
	for _, e := range apps.Catalog() {
		entries = append(entries, planEntry{Name: e.Name, Pkg: "internal/apps", Build: e.Build})
	}
	for _, e := range policies.Registry() {
		entries = append(entries, planEntry{Name: e.Name, Pkg: e.Pkg, Build: e.Build})
	}
	// Registration order is an implementation detail of the catalogs;
	// sort so -plans output (and CI diffs of it) is stable across runs.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Pkg != entries[j].Pkg {
			return entries[i].Pkg < entries[j].Pkg
		}
		return entries[i].Name < entries[j].Name
	})
	return entries
}

// matchPattern matches a module-relative package path against a
// go-style pattern: "./..." and "" match everything, a trailing
// "/..." matches the prefix, anything else matches exactly.
func matchPattern(pkg, pattern string) bool {
	pattern = strings.TrimPrefix(pattern, "./")
	if pattern == "..." || pattern == "" {
		return true
	}
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkg == rest || strings.HasPrefix(pkg, rest+"/")
	}
	return pkg == pattern
}

// proveHints maps each planprove finding class to its standard
// remediation, mirroring fixHints for the source analyzers.
var proveHints = map[string]string{
	planprove.ClassHistRange:    "widen the histogram (more bins or a larger bin width) to cover the proved input range, bound the input with a filter predicate, or waive the designed tail clamp with a documented Waiver",
	planprove.ClassFixedPoint:   "bound the reducer input with a filter predicate, pre-scale it with a mapping stage, or waive the saturation with a Waiver documenting the operational envelope",
	planprove.ClassMapOverflow:  "bound the f_speed source field with a filter predicate so size×1e9 stays inside int64",
	planprove.ClassCellRegister: "batch a narrower field or drop it from the metadata layout; only fields inside their register width deploy without saturation",
	planprove.ClassFGIndex:      "shrink Config.FGTableSize to 32768 or fewer entries; the wire cell header has 15 index bits",
}

// runPlans implements -plans: compile every registered policy whose
// home package matches a pattern and check the plan against the
// hardware model. Under prove, the planprove value-range findings
// gate too: every warning-or-worse finding must carry a documented
// waiver from the policy catalogs.
func runPlans(patterns []string, prove, jsonOut, hints bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	waivers := append(apps.Waivers(), policies.Waivers()...)
	model := planvet.DefaultModel()
	var reports []*planvet.Report
	infeasible, unsafe, waived := 0, 0, 0
	for _, e := range planRegistry() {
		matched := false
		for _, p := range patterns {
			if matchPattern(e.Pkg, p) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		r, err := planvet.CheckPolicy(model, e.Name, e.Build())
		if err != nil {
			fmt.Fprintln(os.Stderr, "superfe-vet:", err)
			return 2
		}
		reports = append(reports, r)
		if !r.Feasible() {
			infeasible++
		}
		if prove && len(r.Proof.Unwaived(waivers)) > 0 {
			unsafe++
		}
	}
	if len(reports) == 0 {
		fmt.Fprintf(os.Stderr, "superfe-vet: no registered plans match %v\n", patterns)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(os.Stderr, "superfe-vet:", err)
			return 2
		}
	} else {
		for _, r := range reports {
			fmt.Print(r.String())
			if prove {
				waived += printProof(r.Proof, waivers, hints)
			}
		}
	}
	if infeasible > 0 || unsafe > 0 {
		fmt.Fprintf(os.Stderr, "superfe-vet: %d of %d plan(s) infeasible, %d unproved\n",
			infeasible, len(reports), unsafe)
		return 1
	}
	if !jsonOut {
		if prove {
			fmt.Printf("superfe-vet: %d plan(s) feasible and proved (%d waived finding(s))\n", len(reports), waived)
		} else {
			fmt.Printf("superfe-vet: %d plan(s) feasible\n", len(reports))
		}
	}
	return 0
}

// printProof renders the prove section for one plan: the verdict,
// then every warning-or-worse finding with its witness, waiver status
// and optional fix hint. The proved site ranges stay implicit here —
// they are in the -json output. Returns the number of waived
// findings.
func printProof(p *planprove.Result, waivers []planprove.Waiver, hints bool) int {
	if unwaived := p.Unwaived(waivers); len(unwaived) > 0 {
		fmt.Printf("prove %-10s UNSAFE (%d unwaived finding(s))\n", p.Plan, len(unwaived))
	} else {
		fmt.Printf("prove %-10s PROVED (%d site(s))\n", p.Plan, len(p.Ranges))
	}
	waived := 0
	for _, f := range p.Findings {
		if f.Sev < planprove.SevWarn {
			continue
		}
		fmt.Printf("  %-5s %s %s: %s\n", f.Sev, f.Class, f.Site, f.Detail)
		if f.Witness != nil {
			fmt.Printf("        witness: %s\n", f.Witness)
		}
		if w, ok := planprove.WaiverFor(f, waivers); ok {
			waived++
			fmt.Printf("        waived: %s\n", w.Reason)
			continue
		}
		if hints {
			if h := proveHints[f.Class]; h != "" {
				fmt.Printf("        hint: %s\n", h)
			}
		}
	}
	return waived
}

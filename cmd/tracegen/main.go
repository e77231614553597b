// Command tracegen synthesises the evaluation workloads (Table 2
// backgrounds and the four application scenarios) and writes them as
// SFT1 trace files, or summarises an existing file — the stand-in for
// the paper's MoonGen replay setup.
//
// Usage:
//
//	tracegen -workload enterprise -o enterprise.sft
//	tracegen -workload mirai -amplify 4 -o mirai4x.sft
//	tracegen -info enterprise.sft
package main

import (
	"flag"
	"fmt"
	"os"

	"superfe/internal/trace"
)

func main() {
	workload := flag.String("workload", "", "mawi | enterprise | campus | wfp | botnet | covert | mirai | osscan | ssdp")
	out := flag.String("o", "", "output trace file")
	info := flag.String("info", "", "summarise an existing trace file")
	seed := flag.Int64("seed", 42, "generator seed")
	amplify := flag.Int("amplify", 1, "replicate the trace into N disjoint flow spaces (in-switch amplification)")
	flag.Parse()
	if *amplify < 1 {
		fmt.Fprintf(os.Stderr, "tracegen: -amplify %d: want at least 1\n", *amplify)
		os.Exit(2)
	}

	switch {
	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := trace.Read(f, *info)
		if err != nil {
			fatal(err)
		}
		st := tr.Stats()
		fmt.Printf("%s: %s\n", *info, st)
		if len(tr.Labels) > 0 {
			var mal int
			for _, l := range tr.Labels {
				if l == 1 {
					mal++
				}
			}
			fmt.Printf("labels: %d malicious / %d total\n", mal, len(tr.Labels))
		}
	case *workload != "":
		if *out == "" {
			fatal(fmt.Errorf("-o required with -workload"))
		}
		tr, err := trace.Named(*workload, *seed)
		if err != nil {
			fatal(err)
		}
		if *amplify > 1 {
			tr = trace.Amplify(tr, *amplify)
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := trace.Write(f, tr); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %s\n", *out, tr.Stats())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

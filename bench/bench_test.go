package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSelfTimes checks the span arithmetic on a hand-built tree:
// self time is the span minus what its children cover, with
// overlapping children counted once and clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "pass", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 40},
		{ID: 2, Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{ID: 4, Name: "leaf", Parent: 1, Start: 15, End: 20},
		{ID: 5, Name: "other", Parent: -1, Start: 200, End: 250},
	}
	want := []int64{
		100 - (30 + 20 + 10), // a covers 10..40, b adds 40..60, c adds 90..100
		30 - 5,
		30,
		30,
		5,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 200 || s.Median != 100.5 || s.TailP != 95 {
		t.Errorf("summary of 1..200: n=%d median=%g tail p%g, want 200, 100.5, p95", s.N, s.Median, s.TailP)
	}
	if s := summarize(xs[:12]); s.TailP != 0 {
		t.Errorf("12 samples have no percentile with ten samples beyond it, got p%g", s.TailP)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds
// the program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload named in BENCHMARK.json on a
// scaled-down trace, both runs, and checks that the verification
// digests agree (execute fails otherwise) and that every metric
// BENCHMARK.json names is emitted under that name and unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			var stdout bytes.Buffer
			s := settings{workload: w.Name, seed: 7, seconds: 0.05, trace: -1, out: out, flowScale: 0.005}
			if err := execute(s, &stdout); err != nil {
				t.Fatalf("execute: %v\n%s", err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result object: %v", err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("result line: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			want := append(spec.EndToEnd, spec.PerLayer...)
			if len(line.Metrics) != len(want) {
				t.Errorf("program emitted %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !nameOK.MatchString(m.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]+", m.Name)
				case !ok:
					t.Errorf("metric %s is named in BENCHMARK.json but not emitted", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

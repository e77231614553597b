package main

// CLI smoke tests for the experiments driver: the listing is a stable
// contract (CI scripts select experiments by id), and bad selectors
// must fail fast with exit code 2 rather than silently running the
// full evaluation.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var experimentsBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-cli")
	if err != nil {
		os.Exit(1)
	}
	experimentsBin = filepath.Join(dir, "experiments")
	out, err := exec.Command("go", "build", "-o", experimentsBin, ".").CombinedOutput()
	if err != nil {
		os.Stderr.Write(out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(experimentsBin, args...)
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return buf.String(), code
}

func TestListEnumeratesExperiments(t *testing.T) {
	out, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d:\n%s", code, out)
	}
	for _, id := range []string{"table2", "fig9", "fig17"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q:\n%s", id, out)
		}
	}
}

func TestUnknownExperimentExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-exp", "fig99")
	if code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown experiment") {
		t.Errorf("error message does not name the failure:\n%s", out)
	}
}

func TestUnknownObsPolicyExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-obs-dump", t.TempDir(), "-obs-policy", "NoSuchPolicy")
	if code != 2 {
		t.Fatalf("unknown -obs-policy exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown policy") {
		t.Errorf("error message does not name the failure:\n%s", out)
	}
}

func TestBadObsWorkersExitsTwo(t *testing.T) {
	dir := t.TempDir()
	out, code := runCLI(t, "-obs-dump", dir, "-obs-workers", "-3")
	if code != 2 {
		t.Fatalf("-obs-workers -3 exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "want at least 1") {
		t.Errorf("-obs-workers -3: missing usage hint:\n%s", out)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) > 0 {
		t.Errorf("-obs-workers -3 wrote %d artefacts (%v)", len(ents), err)
	}
}

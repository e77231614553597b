package main

// CLI smoke tests for tracegen: build the binary once, generate a
// fixed-seed workload into a temp file, and round-trip it through
// -info. Exit codes and stdout fragments are asserted exactly.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var tracegenBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tracegen-cli")
	if err != nil {
		os.Exit(1)
	}
	tracegenBin = filepath.Join(dir, "tracegen")
	out, err := exec.Command("go", "build", "-o", tracegenBin, ".").CombinedOutput()
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
	cmd := exec.Command(tracegenBin, args...)
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

func TestGenerateInfoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "osscan.sft")
	out, code := runCLI(t, "-workload", "osscan", "-seed", "5", "-o", path)
	if code != 0 {
		t.Fatalf("generate exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("generate did not confirm the write:\n%s", out)
	}

	info, code := runCLI(t, "-info", path)
	if code != 0 {
		t.Fatalf("-info exited %d:\n%s", code, info)
	}
	if !strings.Contains(info, path+":") {
		t.Errorf("-info output missing file summary:\n%s", info)
	}
	// Intrusion workloads carry ground-truth labels; -info must
	// surface them.
	if !strings.Contains(info, "labels:") || !strings.Contains(info, "malicious") {
		t.Errorf("-info output missing label summary:\n%s", info)
	}

	// Same seed → byte-identical trace file.
	path2 := filepath.Join(t.TempDir(), "osscan2.sft")
	if out, code := runCLI(t, "-workload", "osscan", "-seed", "5", "-o", path2); code != 0 {
		t.Fatalf("second generate exited %d:\n%s", code, out)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical seeds produced different trace files")
	}
}

func TestBadAmplifyExitsTwo(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		path := filepath.Join(t.TempDir(), "mawi.sft")
		out, code := runCLI(t, "-workload", "mawi", "-amplify", n, "-o", path)
		if code != 2 {
			t.Fatalf("-amplify %s exited %d, want 2:\n%s", n, code, out)
		}
		if !strings.Contains(out, "want at least 1") {
			t.Errorf("-amplify %s: missing usage hint:\n%s", n, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-amplify %s wrote a trace (%v)", n, err)
		}
	}
}

func TestNoArgsExitsTwo(t *testing.T) {
	if _, code := runCLI(t); code != 2 {
		t.Fatalf("no arguments exited %d, want 2", code)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	out, code := runCLI(t, "-workload", "nosuch", "-o", filepath.Join(t.TempDir(), "x.sft"))
	if code != 1 {
		t.Fatalf("unknown workload exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown workload") {
		t.Errorf("error message does not name the failure:\n%s", out)
	}
}

func TestWorkloadRequiresOutput(t *testing.T) {
	out, code := runCLI(t, "-workload", "osscan")
	if code != 1 {
		t.Fatalf("-workload without -o exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "-o required") {
		t.Errorf("error message does not mention -o:\n%s", out)
	}
}

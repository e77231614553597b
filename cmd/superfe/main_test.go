package main

// CLI smoke tests: build the real binary once in TestMain, then drive
// it as a subprocess and assert on exit codes and golden stdout
// fragments. Everything runs with fixed seeds, so the assertions are
// exact and the faulted replay can be checked for byte-identical
// reproducibility — the CLI-level form of the determinism contract
// the fault injector guarantees internally.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var superfeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "superfe-cli")
	if err != nil {
		os.Exit(1)
	}
	superfeBin = filepath.Join(dir, "superfe")
	out, err := exec.Command("go", "build", "-o", superfeBin, ".").CombinedOutput()
	if err != nil {
		os.Stderr.Write(out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes the built binary and returns combined output plus
// the process exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	cmd := exec.Command(superfeBin, args...)
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

func TestListShowsBundledPolicies(t *testing.T) {
	out, code := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d:\n%s", code, out)
	}
	for _, name := range []string{"Kitsune", "NPOD"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing policy %q:\n%s", name, out)
		}
	}
}

func TestStatsReplayGoldenFragments(t *testing.T) {
	out, code := runCLI(t, "-policy", "Kitsune", "-trace", "osscan", "-seed", "7", "-stats")
	if code != 0 {
		t.Fatalf("stats replay exited %d:\n%s", code, out)
	}
	for _, frag := range []string{"trace      :", "switch     :", "aggregation:", "vectors    :"} {
		if !strings.Contains(out, frag) {
			t.Errorf("stats output missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "faults     :") {
		t.Errorf("faults line printed without a -faults plan:\n%s", out)
	}
}

func TestFaultedReplayIsReproducible(t *testing.T) {
	args := []string{"-policy", "Kitsune", "-trace", "osscan", "-seed", "7",
		"-stats", "-faults", "seed=11,rate=0.05,kinds=all"}
	out1, code1 := runCLI(t, args...)
	if code1 != 0 {
		t.Fatalf("faulted replay exited %d:\n%s", code1, out1)
	}
	if !strings.Contains(out1, "faults     : injected[") {
		t.Fatalf("faulted replay missing fault stats line:\n%s", out1)
	}
	out2, code2 := runCLI(t, args...)
	if code2 != 0 {
		t.Fatalf("second faulted replay exited %d:\n%s", code2, out2)
	}
	if out1 != out2 {
		t.Fatalf("identical seeds produced different output:\n--- first\n%s--- second\n%s", out1, out2)
	}
}

func TestBadFaultSpecExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-policy", "Kitsune", "-faults", "kinds=gremlins")
	if code != 2 {
		t.Fatalf("bad fault spec exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "unknown fault kind") {
		t.Errorf("error message does not name the bad kind:\n%s", out)
	}
}

func TestMissingPolicyExitsTwo(t *testing.T) {
	out, code := runCLI(t)
	if code != 2 {
		t.Fatalf("no -policy exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "-policy required") {
		t.Errorf("missing usage hint:\n%s", out)
	}
}

func TestBadWorkersExitsTwo(t *testing.T) {
	for _, workers := range []string{"0", "-3"} {
		out, code := runCLI(t, "-policy", "NPOD", "-workers", workers, "-stats")
		if code != 2 {
			t.Fatalf("-workers %s exited %d, want 2:\n%s", workers, code, out)
		}
		if !strings.Contains(out, "want at least 1") {
			t.Errorf("-workers %s: missing usage hint:\n%s", workers, out)
		}
	}
}

func TestNegativeNExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-policy", "NPOD", "-trace", "mawi", "-n", "-5")
	if code != 2 {
		t.Fatalf("-n -5 exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "want 0 (all) or more") {
		t.Errorf("-n -5: missing usage hint:\n%s", out)
	}
}

func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out, code := runCLI(t, "-policy", "NPOD", "-trace", "campus", "-seed", "3", "-stats",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("profiled replay exited %d:\n%s", code, out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

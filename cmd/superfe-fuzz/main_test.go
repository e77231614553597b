package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke drives a tiny campaign through the real harness: it
// must exit 0, report both verdict buckets in the summary, and write
// nothing to the corpus.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1", "-n", "12", "-flows", "30", "-corpus", ""}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	sum := stdout.String()
	if !strings.Contains(sum, "12 case(s)") || !strings.Contains(sum, "0 failure(s)") {
		t.Fatalf("unexpected summary: %q", sum)
	}
}

// TestRunBadFlags pins the flag-error exit code.
func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

// TestRunRejectsEmptyCampaign: a case count below 1 would run nothing
// and report success, and a negative flow count would silently run the
// default; both exit 2 with a message and run no case.
func TestRunRejectsEmptyCampaign(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0", "-corpus", ""},
		{"-n", "-4", "-corpus", ""},
		{"-n", "1", "-flows", "-3", "-corpus", ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "superfe-fuzz: -") {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

// TestRunRejectsBadCaseEnv: without -n the case count is
// SUPERFE_FUZZ_N's, and a value that is not a positive integer exits 2
// with a message, running no case, as a bad -n does. An explicit -n
// does not read the variable.
func TestRunRejectsBadCaseEnv(t *testing.T) {
	for _, v := range []string{"-4", "0", "abc", "1.5"} {
		t.Setenv("SUPERFE_FUZZ_N", v)
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-corpus", ""}, &stdout, &stderr); code != 2 {
			t.Errorf("SUPERFE_FUZZ_N=%q exited %d, want 2", v, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "superfe-fuzz: SUPERFE_FUZZ_N=") {
			t.Errorf("SUPERFE_FUZZ_N=%q: stdout %q, stderr %q", v, stdout.String(), stderr.String())
		}
	}
	t.Setenv("SUPERFE_FUZZ_N", "abc")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "1", "-flows", "30", "-corpus", ""}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "1 case(s)") {
		t.Errorf("-n 1 beside SUPERFE_FUZZ_N=abc exited %d: stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	t.Setenv("SUPERFE_FUZZ_N", "1")
	stdout.Reset()
	if code := run([]string{"-flows", "30", "-corpus", ""}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "1 case(s)") {
		t.Errorf("SUPERFE_FUZZ_N=1 exited %d: stdout %q", code, stdout.String())
	}
}

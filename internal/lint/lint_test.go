package lint_test

import (
	"strings"
	"testing"

	"superfe/internal/lint"
	"superfe/internal/lint/analysistest"
)

func TestHotPathAlloc(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.HotPathAlloc, "hotpath")
	if len(diags) == 0 {
		t.Fatal("expected seeded hotpathalloc violations, got none")
	}
}

func TestNoWallClock(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.NoWallClock, "wallclock")
	if len(diags) == 0 {
		t.Fatal("expected seeded nowallclock violations, got none")
	}
}

func TestGoroutineLeak(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.GoroutineLeak, "goroutine")
	if len(diags) == 0 {
		t.Fatal("expected seeded goroutineleak violations, got none")
	}
}

func TestSinkRetention(t *testing.T) {
	// The fixture package is deliberately named "feature" so its Vector
	// matches the analyzer's borrowed-type set like the real
	// feature.Vector does.
	diags := analysistest.Run(t, "testdata", lint.SinkRetention, "feature")
	if len(diags) == 0 {
		t.Fatal("expected seeded sinkretention violations, got none")
	}
}

func TestMemModelAtomic(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.MemModelAtomic, "memmodelatomic")
	if len(diags) == 0 {
		t.Fatal("expected seeded memmodelatomic violations, got none")
	}
}

// memModelRoleSeeded runs memmodelrole over its one fixture package
// and reports whether it raised diagnostics from the //superfe:padded
// half (padded.go) or from the role-partition half (memmodelrole.go).
func memModelRoleSeeded(t *testing.T, padded bool) bool {
	t.Helper()
	for _, d := range analysistest.Run(t, "testdata", lint.MemModelRole, "memmodelrole") {
		isPad := strings.Contains(d.Message, "//superfe:padded") || strings.Contains(d.Message, "padded struct")
		if isPad == padded {
			return true
		}
	}
	return false
}

func TestMemModelRole(t *testing.T) {
	if !memModelRoleSeeded(t, false) {
		t.Fatal("expected seeded role-partition violations, got none")
	}
}

// TestMemModelPad: the //superfe:padded contract memmodelrole absorbed
// from the memmodelpad analyzer still reports every seeded violation.
func TestMemModelPad(t *testing.T) {
	if !memModelRoleSeeded(t, true) {
		t.Fatal("expected seeded padding violations, got none")
	}
}

func TestMemModelPublish(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.MemModelPublish, "memmodelpublish")
	if len(diags) == 0 {
		t.Fatal("expected seeded memmodelpublish violations, got none")
	}
}

// TestSuite sanity-checks the registry the multichecker runs.
func TestSuite(t *testing.T) {
	as := lint.Analyzers()
	if len(as) < 4 {
		t.Fatalf("suite has %d analyzers, want >= 4", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

package lint_test

import (
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

func TestStatsMerge(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.StatsMerge, "statsmerge")
	if len(diags) == 0 {
		t.Fatal("expected seeded statsmerge violations, got none")
	}
}

func TestPanicDiscipline(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.PanicDiscipline, "panics")
	if len(diags) == 0 {
		t.Fatal("expected seeded panicdiscipline violations, got none")
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

func TestMemModelRole(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.MemModelRole, "memmodelrole")
	if len(diags) == 0 {
		t.Fatal("expected seeded memmodelrole violations, got none")
	}
}

func TestMemModelPublish(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.MemModelPublish, "memmodelpublish")
	if len(diags) == 0 {
		t.Fatal("expected seeded memmodelpublish violations, got none")
	}
}

func TestMemModelPad(t *testing.T) {
	diags := analysistest.Run(t, "testdata", lint.MemModelPad, "memmodelpad")
	if len(diags) == 0 {
		t.Fatal("expected seeded memmodelpad violations, got none")
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

package nicsim

import (
	"go/build"
	"testing"
)

// TestNICHoldsNoReducer: the NIC keeps every state as a
// streaming.Kernel over its group records, and the oracle's reducers
// live in baseline, so a differential between the two compares
// independent code. nicsim's non-test import closure must therefore
// hold no baseline.
func TestNICHoldsNoReducer(t *testing.T) {
	seen := map[string]bool{}
	var walk func(path string)
	walk = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		if path == "superfe/internal/baseline" {
			t.Errorf("nicsim's import closure holds %s", path)
		}
		pkg, err := build.Import(path, ".", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if !pkg.Goroot {
				walk(imp)
			}
		}
	}
	walk("superfe/internal/nicsim")
	if !seen["superfe/internal/streaming"] {
		t.Fatal("the walk did not reach streaming: it read no imports")
	}
}

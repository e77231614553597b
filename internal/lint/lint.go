// Package lint is SuperFE's project-specific vet suite: analyzers
// that mechanically enforce the invariants the engine's correctness
// and performance claims rest on, so a future PR cannot silently
// re-introduce an allocation on the per-packet path, a wall-clock
// read in a simulator, or a second writer on an SPSC ring field.
//
// The suite is driven by cmd/superfe-vet and runs in CI. Invariants
// are declared in the source with comment directives:
//
//	//superfe:hotpath        on a function: it and everything it
//	                         statically calls inside this module must
//	                         be free of allocating constructs
//	                         (hotpathalloc).
//	//superfe:coldpath       on a function: hotpathalloc traversal
//	                         stops here — the function is an
//	                         amortized or error path deliberately
//	                         allowed to allocate.
//	//superfe:deterministic  in a package doc comment: the package
//	                         must not read wall clocks, use the global
//	                         math/rand generators, or iterate maps in
//	                         unmarked order (nowallclock).
//	//superfe:alloc-ok       on (or immediately above) a flagged
//	                         line: suppresses hotpathalloc with a
//	                         stated reason.
//	//superfe:unordered      on (or immediately above) a map range:
//	                         asserts the loop body is
//	                         order-insensitive (commutative reduction
//	                         or sorted afterwards).
//	//superfe:atomic-ok      on (or immediately above) a flagged
//	                         line: suppresses memmodelatomic — the
//	                         access happens in a provably
//	                         single-threaded phase (stated reason
//	                         required).
//	//superfe:goroutine-ok   on (or immediately above) a go
//	                         statement: suppresses goroutineleak —
//	                         the goroutine is process-lifetime by
//	                         design (stated reason required).
//	//superfe:retain-ok      on (or immediately above) a flagged
//	                         line: suppresses sinkretention with a
//	                         stated reason why the borrowed data does
//	                         not outlive the call.
//	//superfe:producer       on a function: it is the producing side
//	                         of an SPSC pair. memmodelrole forbids it
//	                         (and everything it reaches) from writing
//	                         consumer-owned sequence fields;
//	                         memmodelpublish requires its slot writes
//	                         to be followed by an atomic release
//	                         store.
//	//superfe:consumer       on a function: the consuming side of an
//	                         SPSC pair — the mirror-image rules of
//	                         //superfe:producer, plus slot reads must
//	                         be preceded by an atomic acquire load.
//	//superfe:padded         on a struct type: the struct carries
//	                         cache-line pads (_ [64]byte). memmodelrole
//	                         verifies the pads exist, span a full
//	                         line, and that the struct is only ever
//	                         held and passed by pointer.
//	//superfe:publish-ok     on (or immediately above) a flagged
//	                         line: suppresses memmodelpublish — the
//	                         slot access is ordered by other means
//	                         (stated reason required).
//
// See DESIGN.md §10.1 for the vocabulary, the analyzers and what each
// has earned.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"superfe/internal/lint/analysis"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		HotPathAlloc,
		NoWallClock,
		GoroutineLeak,
		SinkRetention,
		MemModelAtomic,
		MemModelRole,
		MemModelPublish,
	}
}

// directivePrefix introduces all superfe vet directives.
const directivePrefix = "superfe:"

// funcDirective reports whether the function's doc comment carries
// the given //superfe: directive.
func funcDirective(fd *ast.FuncDecl, name string) bool {
	return commentGroupDirective(fd.Doc, name)
}

// packageDirective reports whether any file's package doc comment
// carries the given //superfe: directive.
func packageDirective(files []*ast.File, name string) bool {
	for _, f := range files {
		if commentGroupDirective(f.Doc, name) {
			return true
		}
	}
	return false
}

func commentGroupDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if directiveName(c.Text) == name {
			return true
		}
	}
	return false
}

// directiveName extracts the directive word from a comment ("//superfe:hotpath
// reason..." → "hotpath"), or "" when the comment is not a directive.
func directiveName(text string) string {
	rest, ok := strings.CutPrefix(text, "//"+directivePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// directives indexes every //superfe: line directive in a set of
// files by position, for same-line / preceding-line suppression
// lookups.
type directives struct {
	fset *token.FileSet
	// byLine maps filename → line → directive names present there.
	byLine map[string]map[int][]string
}

func newDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{fset: fset, byLine: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := directiveName(c.Text)
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
			}
		}
	}
	return d
}

// at reports whether the named directive appears on the line of pos
// or on the line immediately above it.
func (d *directives) at(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	lines := d.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, ln := range []int{p.Line, p.Line - 1} {
		for _, n := range lines[ln] {
			if n == name {
				return true
			}
		}
	}
	return false
}

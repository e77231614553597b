// Package analysis is a self-contained, stdlib-only miniature of
// golang.org/x/tools/go/analysis: just enough driver surface —
// Analyzer, Pass, Diagnostic — to host SuperFE's project-specific vet
// checks (see superfe/internal/lint). The x/tools module is not
// vendored in this repository, so the suite runs on go/ast + go/types
// alone; an Analyzer written against this package deliberately keeps
// the upstream field names (Name, Doc, Run, Pass.Report) so porting
// to the real framework later is mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the
	// superfe-vet command line.
	Name string
	// Doc is the one-paragraph description printed by superfe-vet
	// -help.
	Doc string
	// Run applies the check to one package and reports findings via
	// pass.Report. The returned error aborts the whole vet run (use it
	// for driver failures, not findings).
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("superfe/internal/switchsim").
	Path string
	// Dir is the directory the files were loaded from.
	Dir string
	// Files are the parsed compilation units, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression annotations.
	Info *types.Info
}

// Program is the full set of module-local packages loaded for one vet
// run. Analyzers that need whole-module context (cross-package call
// traversal) reach it through Pass.Prog.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Packages   []*Package
	// Targets holds the import paths that matched the load patterns;
	// Packages may additionally contain transitive module-local
	// dependencies loaded for cross-package analysis.
	Targets []string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Prog      *Program
	// Report records one finding.
	Report func(Diagnostic)
}

// Reportf formats and reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InfoTemplate returns a fully-populated types.Info for the loader to
// type-check into; every map analyzers rely on is non-nil.
func InfoTemplate() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// Package analysis is a minimal, dependency-free static-analysis framework
// shaped after golang.org/x/tools/go/analysis. The module deliberately has
// no third-party dependencies, so the x/tools multichecker cannot be used;
// this package provides the small subset the repository's cryptolint
// analyzers need: a named Analyzer with a Run function, a Pass carrying one
// type-checked package (plus every other source-loaded package of the run,
// for cross-package annotation facts), and positioned diagnostics.
//
// The analyzers themselves live in the sibling packages (randsource,
// boundarycheck, nopanic, secretcompare, secretleak) and are driven either
// by cmd/cryptolint over the whole module or by the analysistest harness
// over GOPATH-style fixture trees.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, one word).
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Package is one type-checked package with its syntax.
type Package struct {
	// Path is the import path ("repro/internal/sem").
	Path string
	// Fset positions every file of the load (shared across packages).
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checker's package object.
	Types *types.Package
	// Info carries the type-checking results for Files.
	Info *types.Info
}

// Pass is the unit of work handed to an Analyzer: one package, plus access
// to every other source-loaded package of the run so annotation-driven
// analyzers (the //cryptolint:secret taint checks) can resolve markers on
// types defined elsewhere in the module.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// All lists every package loaded from source in this run, including
	// Pkg itself. Dependency packages loaded only for type information
	// (the standard library) are not included.
	All []*Package

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every target package and returns the
// accumulated diagnostics sorted by position, with a "markers" finding for
// every //cryptolint: comment outside the marker vocabulary (markers.go).
// all must contain at least the targets; passing the loader's full
// source-loaded set enables cross-package annotation lookups.
func Run(targets, all []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range targets {
		checkMarkers(pkg, &diags)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: all, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

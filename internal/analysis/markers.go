package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// The //cryptolint marker vocabulary shared by the analyzers. Markers are
// ordinary comments; which positions they are honoured in depends on the
// marker (see each analyzer's package documentation):
//
//   - //cryptolint:secret — type declarations (see package secrets)
//   - //cryptolint:public — struct fields, and line-level escapes for the
//     taint analyzers (a sanctioned wire/keyfile edge, a value that is
//     public despite its taint)
//   - //cryptolint:hotpath — function declarations; the allocfree analyzer
//     forbids allocation inside
//   - //cryptolint:vartime — function declarations and package clauses; the
//     body (or package) is a sanctioned variable-time domain for cttime
//   - //cryptolint:nodeadline — line-level deadlinecheck escape
//   - //cryptolint:panic-ok — line-level nopanic escape (deliberate
//     re-raise, e.g. the parallel worker-panic propagation)
//
// Every escape marker is expected to carry a parenthesised reason; the
// marker's presence is what the analyzers test, the reason is for the
// reviewer. A //cryptolint: comment with any other word is a finding of its
// own (checkMarkers): a misspelt marker, or one whose rule is gone, would
// otherwise escape nothing, silently.
const (
	MarkerPublic     = "//cryptolint:public"
	MarkerHotpath    = "//cryptolint:hotpath"
	MarkerVartime    = "//cryptolint:vartime"
	MarkerNoDeadline = "//cryptolint:nodeadline"
	MarkerPanicOK    = "//cryptolint:panic-ok"
)

// markerPrefix opens every marker; markerWords is the vocabulary above.
const markerPrefix = "//cryptolint:"

var markerWords = []string{"secret", "public", "hotpath", "vartime", "nodeadline", "panic-ok"}

// checkMarkers reports every //cryptolint: comment of pkg whose word is not
// in the vocabulary.
func checkMarkers(pkg *Package, diags *[]Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(c.Text), markerPrefix)
				if !ok {
					continue
				}
				word, _, _ := strings.Cut(rest, " ")
				word, _, _ = strings.Cut(word, "(")
				if !slices.Contains(markerWords, word) {
					*diags = append(*diags, Diagnostic{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "markers",
						Message:  fmt.Sprintf("unknown marker %s%s; the vocabulary is %s", markerPrefix, word, strings.Join(markerWords, ", ")),
					})
				}
			}
		}
	}
}

// HasMarker reports whether any comment in cg begins with marker.
func HasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), marker) {
			return true
		}
	}
	return false
}

// LineMarks indexes every //cryptolint marker comment of one package by
// file and line, so analyzers can honour line-level escapes (a marker
// suppresses findings reported on the line it sits on).
type LineMarks struct {
	fset  *token.FileSet
	marks map[lineKey]bool
}

type lineKey struct {
	file   string
	line   int
	marker string
}

// CollectLineMarks scans pkg's comments for the given markers.
func CollectLineMarks(pkg *Package, markers ...string) *LineMarks {
	lm := &LineMarks{fset: pkg.Fset, marks: make(map[lineKey]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				for _, m := range markers {
					if strings.HasPrefix(text, m) {
						pos := pkg.Fset.Position(c.Pos())
						lm.marks[lineKey{pos.Filename, pos.Line, m}] = true
					}
				}
			}
		}
	}
	return lm
}

// Has reports whether marker sits on the line holding pos.
func (lm *LineMarks) Has(marker string, pos token.Pos) bool {
	p := lm.fset.Position(pos)
	return lm.marks[lineKey{p.Filename, p.Line, marker}]
}

// PackageMarked reports whether any file of pkg carries marker in its
// package-clause doc comment — a package-wide annotation.
func PackageMarked(pkg *Package, marker string) bool {
	for _, f := range pkg.Files {
		if HasMarker(f.Doc, marker) {
			return true
		}
	}
	return false
}

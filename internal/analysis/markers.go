package analysis

import (
	"go/ast"
	"go/token"
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
//   - //cryptolint:evalpoint — struct fields holding a curve point that is
//     not subgroup-checked and only ever a pairing's evaluation point;
//     boundarycheck restricts every read of such a field, and honours the
//     same marker as the line-level escape from that restriction
//
// Every escape marker is expected to carry a parenthesised reason; the
// marker's presence is what the analyzers test, the reason is for the
// reviewer.
const (
	MarkerPublic     = "//cryptolint:public"
	MarkerHotpath    = "//cryptolint:hotpath"
	MarkerVartime    = "//cryptolint:vartime"
	MarkerNoDeadline = "//cryptolint:nodeadline"
	MarkerPanicOK    = "//cryptolint:panic-ok"
	MarkerEvalPoint  = "//cryptolint:evalpoint"
)

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

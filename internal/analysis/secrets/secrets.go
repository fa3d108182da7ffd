// Package secrets resolves the //cryptolint:secret type annotation and
// decides which expressions carry secret material. It is shared by the
// secretcompare and secretleak analyzers.
//
// The annotation is written on a type declaration:
//
//	//cryptolint:secret
//	type PrivateKey struct {
//		ID string      // metadata, not secret
//		D  *curve.Point // secret
//	}
//
// A value whose type is an annotated named type (through any number of
// pointers) is secret. Taint propagates structurally, not through data flow:
//
//   - selecting a field of a secret value yields a secret value, unless the
//     field has basic type (int, string, bool, ...) — basic fields are
//     treated as metadata (identifiers, indices, timestamps);
//   - calling a method on a secret receiver yields a secret result, unless
//     the result has basic type (String(), Len(), Equal() accessors);
//   - indexing or slicing a secret slice yields a secret element;
//   - converting a secret value to another type — string(k.Bytes) — keeps
//     it secret: a conversion renames the bits, it does not summarise them.
//
// A non-basic field that is nonetheless public — a key half's bound modulus,
// a key pair's embedded public key — can opt out with a //cryptolint:public
// comment on the field declaration:
//
//	//cryptolint:secret
//	type ExpHalf struct {
//		N    *big.Int //cryptolint:public (the modulus)
//		Half *big.Int
//	}
package secrets

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Marker is the annotation comment that declares a type secret-bearing.
const Marker = "//cryptolint:secret"

// PublicMarker is the field-level escape: a non-basic field of an annotated
// struct carrying this comment is treated as metadata, not key material.
const PublicMarker = "//cryptolint:public"

// Set holds the annotated type names of one analysis run, plus the fields of
// those types explicitly declared public.
type Set struct {
	names  map[*types.TypeName]bool
	public map[types.Object]bool
}

// Collect scans every source-loaded package for Marker annotations on type
// declarations and returns the resulting set.
func Collect(all []*analysis.Package) *Set {
	s := &Set{
		names:  make(map[*types.TypeName]bool),
		public: make(map[types.Object]bool),
	}
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok.String() != "type" {
					continue
				}
				declMarked := hasMarker(gd.Doc, Marker)
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if declMarked || hasMarker(ts.Doc, Marker) || hasMarker(ts.Comment, Marker) {
						if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
							s.names[tn] = true
						}
					}
					// Public field markers are honoured on every struct, not
					// just secret-marked ones: interprocedural flow taints
					// unannotated types too (a Point computed from a secret
					// scalar), and their parameter back-references — the
					// curve a point lives on, the field a curve caches —
					// need the same opt-out.
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !hasMarker(field.Doc, PublicMarker) && !hasMarker(field.Comment, PublicMarker) {
							continue
						}
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								s.public[obj] = true
							}
						}
					}
				}
			}
		}
	}
	return s
}

func hasMarker(cg *ast.CommentGroup, marker string) bool {
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

// Names reports how many annotated types the set holds.
func (s *Set) Names() int { return len(s.names) }

// Public reports whether obj is a struct field explicitly declared
// //cryptolint:public inside an annotated type. The taint layer uses it to
// stop propagation through declared-public fields.
func (s *Set) Public(obj types.Object) bool { return s.public[obj] }

// SecretType reports whether t is (a pointer to) an annotated named type.
func (s *Set) SecretType(t types.Type) bool {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		if a, ok := t.(*types.Alias); ok {
			return s.SecretType(types.Unalias(a))
		}
		return false
	}
	return s.names[named.Obj()]
}

// SecretExpr reports whether the expression e carries secret material under
// the structural taint rules described in the package comment.
func (s *Set) SecretExpr(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && s.SecretType(tv.Type) {
		return true
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// Field or method access on a secret value: basic-typed results and
		// //cryptolint:public fields are metadata, everything else stays
		// secret.
		if !s.SecretExpr(info, x.X) {
			return false
		}
		if obj := info.Uses[x.Sel]; obj != nil && s.public[obj] {
			return false
		}
		return !isBasic(info.TypeOf(e))
	case *ast.CallExpr:
		// A type conversion is the same bits under a new name: string(k.Bytes)
		// is as secret as k.Bytes, even though the result type is basic. (A
		// *method* with a basic result stays metadata — it computed something.)
		if tv, ok := info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() && len(x.Args) == 1 {
			return s.SecretExpr(info, x.Args[0])
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && s.SecretExpr(info, sel.X) {
			return !isBasic(info.TypeOf(e))
		}
	case *ast.IndexExpr:
		return s.SecretExpr(info, x.X)
	case *ast.SliceExpr:
		return s.SecretExpr(info, x.X)
	case *ast.StarExpr:
		return s.SecretExpr(info, x.X)
	case *ast.UnaryExpr:
		return s.SecretExpr(info, x.X)
	}
	return false
}

func isBasic(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

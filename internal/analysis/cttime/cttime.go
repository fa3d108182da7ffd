// Package cttime forbids variable-time operations on secret-tainted
// values. It is the mechanical form of the constant-time discipline the
// limb backend (internal/fp) established: once a value is tainted by a
// //cryptolint:secret source — directly or through the interprocedural
// flow tracked by package taint — its bits must not steer control flow,
// memory addressing, or math/big's value-dependent loops.
//
// Three rules:
//
//   - branch: an if/switch/for condition containing a tainted
//     subexpression leaks through the instruction stream. Presence checks
//     (x == nil), crypto/subtle verdicts and basic-typed metadata results
//     (Sign(), BitLen(), IsZero()) are exempt.
//   - index: indexing a slice, array or map with a tainted index or key
//     leaks through the cache.
//   - vartime call: math/big arithmetic runs in time dependent on its
//     operands' values and may not receive tainted input.
//
// Escapes, each expected to carry a reason:
//
//   - a //cryptolint:public comment on the finding's line sanctions that
//     expression (a wire/keyfile serialization edge, a value that is
//     published anyway);
//   - a //cryptolint:vartime marker on a function declaration sanctions the
//     whole body (the documented variable-time helpers themselves);
//   - a //cryptolint:vartime marker on the package clause sanctions the
//     package (the legacy math/big scheme implementations, where the
//     limb discipline deliberately does not apply).
package cttime

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/taint"
)

// Analyzer is the cttime checker.
var Analyzer = &analysis.Analyzer{
	Name: "cttime",
	Doc:  "forbid variable-time operations (branches, indexing, math/big) on secret-tainted values",
	Run:  run,
}

// bigIntMethods lists math/big.Int methods whose running time depends on
// operand values (normalization, GCD loops, bit-length-driven ladders).
// Read-only metadata accessors (Sign, BitLen, Bit, Cmp — the latter
// secretcompare's business) are deliberately absent.
var bigIntMethods = map[string]bool{
	"Add": true, "Sub": true, "Mul": true, "Div": true, "Mod": true,
	"Quo": true, "Rem": true, "DivMod": true, "QuoRem": true,
	"Exp": true, "ModInverse": true, "ModSqrt": true, "GCD": true,
	"Neg": true, "Abs": true, "Lsh": true, "Rsh": true,
	"SetBytes": true, "FillBytes": true, "Bytes": true, "Text": true,
	"And": true, "Or": true, "Xor": true, "AndNot": true, "Sqrt": true,
}

func run(pass *analysis.Pass) error {
	ta := taint.For(pass.All)
	if ta.Secrets.Names() == 0 {
		return nil
	}
	if analysis.PackageMarked(pass.Pkg, analysis.MarkerVartime) {
		return nil
	}
	info := pass.Pkg.Info
	marks := analysis.CollectLineMarks(pass.Pkg, analysis.MarkerPublic)

	check := func(fd *ast.FuncDecl) {
		if fd.Body == nil || analysis.HasMarker(fd.Doc, analysis.MarkerVartime) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IfStmt:
				checkCond(pass, ta, marks, info, x.Cond)
			case *ast.ForStmt:
				checkCond(pass, ta, marks, info, x.Cond)
			case *ast.SwitchStmt:
				checkCond(pass, ta, marks, info, x.Tag)
			case *ast.IndexExpr:
				// A generic instantiation (newMediator[*GDHSEMKey]) parses
				// as an IndexExpr too; a type argument is not a memory
				// access.
				if tv, ok := info.Types[x.Index]; ok && tv.IsType() {
					return true
				}
				if ta.Tainted(info, x.Index) && !marks.Has(analysis.MarkerPublic, x.Pos()) {
					what := "index"
					if isMap(info.TypeOf(x.X)) {
						what = "map key"
					}
					pass.Reportf(x.Index.Pos(), "secret-tainted %s: memory access depends on secret data", what)
				}
			case *ast.CallExpr:
				checkCall(pass, ta, marks, info, x)
			}
			return true
		})
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				check(fd)
			}
		}
	}
	return nil
}

// checkCond reports a tainted subexpression steering a branch. The walk
// descends only through the transparent connectives of a condition —
// comparisons, logical and arithmetic operators, unary negation — and at
// every operand lets the taint verdict be final in both directions: a
// tainted operand is reported (the diagnostic lands on it, not the whole
// expression), and an untainted one is not looked inside. The second half
// matters as much as the first: `f.n == 8` on a flow-tainted f is a
// metadata check, and `x.Sign() < 0` summarized its input into a public
// verdict — descending past either would rediscover the tainted base and
// flag every branch that so much as mentions it.
func checkCond(pass *analysis.Pass, ta *taint.Analysis, marks *analysis.LineMarks, info *types.Info, cond ast.Expr) {
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		if e == nil {
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.BinaryExpr:
			// Presence checks carry no value timing signal.
			if isNil(info, x.X) || isNil(info, x.Y) {
				return
			}
			walk(x.X)
			walk(x.Y)
			return
		case *ast.UnaryExpr:
			walk(x.X)
			return
		}
		e = ast.Unparen(e)
		if ta.Tainted(info, e) && !marks.Has(analysis.MarkerPublic, e.Pos()) {
			pass.Reportf(e.Pos(), "branch condition on secret-tainted value: control flow depends on secret data")
		}
	}
	walk(cond)
}

// checkCall reports variable-time math/big arithmetic receiving tainted
// input.
func checkCall(pass *analysis.Pass, ta *taint.Analysis, marks *analysis.LineMarks, info *types.Info, call *ast.CallExpr) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math/big" || receiverTypeName(fn) != "Int" || !bigIntMethods[fn.Name()] {
		return
	}

	leaks := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && ta.Tainted(info, sel.X) {
		leaks = true
	}
	for _, arg := range call.Args {
		if leaks {
			break
		}
		leaks = ta.Tainted(info, arg)
	}
	if leaks && !marks.Has(analysis.MarkerPublic, call.Pos()) {
		pass.Reportf(call.Pos(), "secret-tainted value reaches variable-time math/big.Int.%s; use the constant-time fp path or annotate the sanctioned edge", fn.Name())
	}
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// receiverTypeName returns the name of fn's receiver type (through one
// pointer), or "" for a plain function.
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = info.Uses[id].(*types.Nil)
	return ok
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

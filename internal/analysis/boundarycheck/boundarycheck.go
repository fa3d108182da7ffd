// Package boundarycheck enforces that network-facing packages decode wire
// bytes only through the validated constructors in repro/internal/wire.
//
// A []byte arriving over a SEM or cluster connection is attacker-controlled:
// decoding it with a raw constructor (curve.Unmarshal without a subgroup
// check routed through wire, big.Int.SetBytes without a range check,
// GTFromBytes without an order-q membership check) admits small-subgroup and
// invalid-element attacks against the mediated and threshold schemes. The
// wire package wraps every decoder with the appropriate validation, so the
// rule is purely structural: in a package whose import path contains a sem,
// cluster or cmd element, calls to the raw decoders are findings. The wire
// package itself is exempt — it is the sanctioned implementation site.
//
// One validated decoder checks less than the others on purpose, and the
// analyzer knows which: wire.UnmarshalPairingArg returns a point that is on
// the curve and not the identity but NOT subgroup-checked, sound only as the
// evaluation point (second argument) of a pairing whose first argument is
// the caller's own order-q key, where a cofactor component cancels
// (DESIGN §7). In the same network-facing packages its result must be bound
// to a local variable, and every use of that variable must be one of: the U
// argument of core.IBESEM.Token or core.ThresholdPlayer.Share (a decryption
// share is the token for the player's key share, and its proof is powers of
// that pairing value), the second argument of pairing.Params.Pair, the
// argument of pairing.FixedPair.Pair or Params.PairWithGenerator, a
// comparison with nil, or a call of its
// IsInfinity method. Anything else — ScalarMul, Add, Marshal, a first
// pairing argument, a copy, a return, a store — is a finding: those uses
// need the [q]· check of wire.UnmarshalG1.
//
// An evaluation point may also be stored — in a struct field that says so.
// A field marked //cryptolint:evalpoint (reason) may be assigned such a
// variable, in an assignment or a composite literal, and is then treated as
// one wherever it is read: every selection of a marked field, in the
// network-facing packages and in internal/core (where the verifier that
// reads it lives), is held to the uses above plus one. Evaluation points may
// be summed: a marked field may be assigned to an element of a local slice
// that is only ever filled, measured with len and passed as the points of
// curve.Curve.MSM — exact on all of E(F_p), so the cofactor parts add up to
// a cofactor part — provided the sum is bound to a local variable, which is
// then itself restricted to those uses. A line that must do otherwise with
// its own point — a prover marshalling the V it has just computed — carries
// a //cryptolint:evalpoint (reason) comment of its own.
package boundarycheck

import (
	"go/ast"
	"go/types"
	"slices"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the boundarycheck checker.
var Analyzer = &analysis.Analyzer{
	Name: "boundarycheck",
	Doc:  "require wire's validated decoders for []byte→element conversions in network-facing packages",
	Run:  run,
}

// rawDecoder describes one banned decode entry point and its sanctioned
// replacement.
type rawDecoder struct {
	pkgSuffix string // import-path suffix of the defining package
	method    string
	instead   string
}

var rawDecoders = []rawDecoder{
	{"internal/curve", "Unmarshal", "wire.UnmarshalG1"},
	{"internal/pairing", "GTFromBytes", "wire.UnmarshalGT"},
	{"internal/gf", "ElementFromBytes", "wire.UnmarshalGT"},
	{"math/big", "SetBytes", "wire.UnmarshalScalar"},
}

// pairingArgDecoder is the decoder whose result is a pairing evaluation
// point and nothing else.
const pairingArgDecoder = "UnmarshalPairingArg"

// pairingArgSinks lists where such a point may go: the function (by
// defining-package suffix, receiver type and name) and the argument index.
var pairingArgSinks = []struct {
	pkgSuffix, recv, method string
	arg                     int
}{
	{"internal/core", "IBESEM", "Token", 1},
	{"internal/core", "ThresholdPlayer", "Share", 1},
	{"internal/pairing", "Params", "Pair", 1},
	{"internal/pairing", "Params", "PairWithGenerator", 0},
	{"internal/pairing", "FixedPair", "Pair", 0},
}

func run(pass *analysis.Pass) error {
	if exempt(pass.Pkg.Path) {
		return nil
	}
	facing := networkFacing(pass.Pkg.Path)
	if !facing && !pathMatches(pass.Pkg.Path, "internal/core") {
		return nil
	}
	checkEvalPoints(pass)
	if !facing {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			for _, d := range rawDecoders {
				if fn.Name() == d.method && pathMatches(fn.Pkg().Path(), d.pkgSuffix) {
					pass.Reportf(call.Pos(), "raw %s.%s decode at a network boundary; use %s", fn.Pkg().Name(), d.method, d.instead)
				}
			}
			return true
		})
	}
	return nil
}

// calleeOf resolves the function a call expression invokes through a
// selector (method or package-qualified function); nil otherwise.
func calleeOf(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return fn
}

// recvName is the name of the type fn is a method of ("" for a function).
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isCall reports whether e calls the named function or method of the package
// with the given import-path suffix, and returns the call.
func isCall(pass *analysis.Pass, e ast.Expr, pkgSuffix, recv, name string) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn := calleeOf(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || recvName(fn) != recv || !pathMatches(fn.Pkg().Path(), pkgSuffix) {
		return nil, false
	}
	return call, true
}

func isPairingArgDecode(pass *analysis.Pass, e ast.Expr) bool {
	_, ok := isCall(pass, e, "internal/wire", "", pairingArgDecoder)
	return ok
}

// evalPoints is the state of the evaluation-point rule for one package.
type evalPoints struct {
	pass  *analysis.Pass
	marks *analysis.LineMarks
	// fields are the struct fields marked //cryptolint:evalpoint, module-wide.
	fields map[types.Object]bool
	// vars are the restricted local variables, each with the phrase findings
	// name it by: results of wire.UnmarshalPairingArg and MSM sums of
	// evaluation points.
	vars map[types.Object]string
	// local are the variables declared by an assignment or a var statement
	// (not parameters, results or package-level variables); sums are those of
	// them that are slices an evaluation point was assigned into.
	local map[types.Object]bool
	sums  map[types.Object]bool
	// bound are the decoder and MSM calls whose result lands in a restricted
	// variable, defining the identifiers those assignments write.
	bound    map[*ast.CallExpr]bool
	defining map[*ast.Ident]bool
}

// evalPointFields collects the marked struct fields of every source-loaded
// package.
func evalPointFields(all []*analysis.Package) map[types.Object]bool {
	fields := make(map[types.Object]bool)
	for _, pkg := range all {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if !analysis.HasMarker(field.Doc, analysis.MarkerEvalPoint) && !analysis.HasMarker(field.Comment, analysis.MarkerEvalPoint) {
						continue
					}
					for _, name := range field.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							fields[obj] = true
						}
					}
				}
				return true
			})
		}
	}
	return fields
}

// checkEvalPoints enforces the evaluation-point rule of the package comment.
// It is a per-package, flow-insensitive check: a variable that is ever
// assigned wire.UnmarshalPairingArg's result (or a sum of evaluation points)
// is restricted everywhere it appears, and so is every read of a marked
// field.
func checkEvalPoints(pass *analysis.Pass) {
	info := pass.Pkg.Info
	ep := &evalPoints{
		pass:     pass,
		marks:    analysis.CollectLineMarks(pass.Pkg, analysis.MarkerEvalPoint),
		fields:   evalPointFields(pass.All),
		vars:     make(map[types.Object]string),
		local:    make(map[types.Object]bool),
		sums:     make(map[types.Object]bool),
		bound:    make(map[*ast.CallExpr]bool),
		defining: make(map[*ast.Ident]bool),
	}
	// eachAssign visits every assignment and declaration as (lhs, rhs).
	eachAssign := func(visit func(lhs, rhs []ast.Expr)) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.AssignStmt:
					visit(st.Lhs, st.Rhs)
				case *ast.ValueSpec:
					lhs := make([]ast.Expr, len(st.Names))
					for i, name := range st.Names {
						lhs[i] = name
					}
					visit(lhs, st.Values)
				}
				return true
			})
		}
	}
	// bind restricts the variable a two-valued call's first result lands in.
	bind := func(lhs []ast.Expr, call *ast.CallExpr, what string) {
		if len(lhs) != 2 {
			return
		}
		id, ok := lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		ep.vars[obj] = what
		ep.bound[call] = true
		ep.defining[id] = true
	}
	eachAssign(func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 && isPairingArgDecode(pass, rhs[0]) {
			bind(lhs, ast.Unparen(rhs[0]).(*ast.CallExpr), "point from wire."+pairingArgDecoder)
		}
		for _, l := range lhs {
			if id, ok := l.(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok && v.Parent() != pass.Pkg.Types.Scope() {
					ep.local[v] = true
				}
			}
		}
	})
	eachAssign(func(lhs, rhs []ast.Expr) {
		if len(lhs) != len(rhs) {
			return
		}
		for i := range lhs {
			if obj := ep.sliceOfElem(lhs[i]); obj != nil && ep.what(rhs[i]) != "" {
				ep.sums[obj] = true
			}
		}
	})
	eachAssign(func(lhs, rhs []ast.Expr) {
		if len(rhs) != 1 {
			return
		}
		if call, ok := ep.sumCall(rhs[0]); ok {
			bind(lhs, call, "sum of evaluation points")
		}
	})

	for _, f := range pass.Pkg.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch x := n.(type) {
			case *ast.CallExpr:
				if isPairingArgDecode(pass, x) && !ep.bound[x] {
					ep.reportf(x, "wire.%s result must be bound to a local variable so its uses can be checked (it is not subgroup-checked)", pairingArgDecoder)
				}
				if _, ok := ep.sumCall(x); ok && !ep.bound[x] {
					ep.reportf(x, "a Curve.MSM sum of evaluation points must be bound to a local variable so its uses can be checked (it is not subgroup-checked)")
				}
			case *ast.Ident:
				if ep.defining[x] {
					break
				}
				if ep.sums[info.Uses[x]] {
					if use := ep.sumUse(stack); use != "" {
						ep.reportf(x, "slice of evaluation points %s; it may only be filled, measured with len and summed by Curve.MSM", use)
					}
					break
				}
				ep.checkUse(x, stack)
			case *ast.SelectorExpr:
				ep.checkUse(x, stack)
			}
			return true
		})
	}
}

// reportf reports a finding at n unless its line carries the reasoned
// //cryptolint:evalpoint escape.
func (ep *evalPoints) reportf(n ast.Node, format string, args ...any) {
	if !ep.marks.Has(analysis.MarkerEvalPoint, n.Pos()) {
		ep.pass.Reportf(n.Pos(), format, args...)
	}
}

// what names the evaluation point e reads — a restricted variable or a marked
// field — for a finding; "" when e is neither.
func (ep *evalPoints) what(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return ep.vars[ep.pass.Pkg.Info.Uses[x]]
	case *ast.SelectorExpr:
		if obj := ep.pass.Pkg.Info.Uses[x.Sel]; ep.fields[obj] {
			return "stored evaluation point " + x.Sel.Name
		}
	}
	return ""
}

// sliceOfElem returns the slice variable P when e is P[i] and P is a
// function's own slice (declared in a function body, so nothing outside the
// function holds it unless the function lets it go — which sumUse reports);
// nil otherwise.
func (ep *evalPoints) sliceOfElem(e ast.Expr) types.Object {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(idx.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := ep.pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok || !ep.local[v] {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Slice); !ok {
		return nil
	}
	return v
}

// sumCall reports whether e is a Curve.MSM call whose points are a slice of
// evaluation points.
func (ep *evalPoints) sumCall(e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := isCall(ep.pass, e, "internal/curve", "Curve", "MSM")
	if !ok || len(call.Args) != 2 {
		return nil, false
	}
	id, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	return call, ok && ep.sums[ep.pass.Pkg.Info.Uses[id]]
}

// checkUse reports e, the last node of stack, if it reads an evaluation point
// somewhere the rule does not allow.
func (ep *evalPoints) checkUse(e ast.Expr, stack []ast.Node) {
	what := ep.what(e)
	if what == "" {
		return
	}
	if use := ep.use(e, stack); use != "" {
		ep.reportf(e, "%s %s; it is not subgroup-checked and may only reach IBESEM.Token, ThresholdPlayer.Share, a pairing's second argument or a Curve.MSM sum that does — decode with wire.UnmarshalG1", what, use)
	}
}

// parentOf steps out of parentheses: it returns the index in stack of the
// nearest enclosing node of stack's last node that is not a ParenExpr (−1 at
// the top), and the expression that stands for the last node inside it.
func parentOf(stack []ast.Node) (parent int, self ast.Expr) {
	self = stack[len(stack)-1].(ast.Expr)
	for i := len(stack) - 2; i >= 0; i-- {
		p, ok := stack[i].(*ast.ParenExpr)
		if !ok {
			return i, self
		}
		self = p
	}
	return -1, self
}

// use classifies one read of an evaluation point from its enclosing nodes
// (stack ends at the expression): "" for a permitted use, else a phrase
// naming the forbidden one.
func (ep *evalPoints) use(e ast.Expr, stack []ast.Node) string {
	info := ep.pass.Pkg.Info
	const escapes = "escapes (copied, returned or stored)"
	pi, self := parentOf(stack)
	if pi < 0 {
		return escapes
	}
	switch parent := stack[pi].(type) {
	case *ast.BinaryExpr:
		other := parent.X
		if other == self {
			other = parent.Y
		}
		if tv, ok := info.Types[other]; ok && tv.IsNil() {
			return ""
		}
		return "is compared with another point"
	case *ast.SelectorExpr:
		// u.Method(...): only IsInfinity is harmless.
		if parent.X == self {
			if parent.Sel.Name == "IsInfinity" {
				return ""
			}
			return "is the receiver of " + parent.Sel.Name
		}
	case *ast.AssignStmt:
		for i, lhs := range parent.Lhs {
			if lhs == self {
				return "" // the store into a marked field; what is stored is the right-hand side's business
			}
			if len(parent.Lhs) != len(parent.Rhs) || parent.Rhs[i] != self {
				continue
			}
			// Stored where it stays an evaluation point: a marked field, or a
			// slice that is only summed.
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && ep.fields[info.Uses[sel.Sel]] {
				return ""
			}
			if ep.sums[ep.sliceOfElem(lhs)] {
				return ""
			}
		}
	case *ast.KeyValueExpr:
		if key, ok := parent.Key.(*ast.Ident); ok && parent.Value == self && ep.fields[info.Uses[key]] {
			return ""
		}
	case *ast.CallExpr:
		fn := calleeOf(ep.pass, parent)
		for argIdx, arg := range parent.Args {
			if arg != self {
				continue
			}
			if fn == nil || fn.Pkg() == nil {
				return "is passed to a function the rule does not know"
			}
			recv := recvName(fn)
			for _, s := range pairingArgSinks {
				if s.method == fn.Name() && s.recv == recv && s.arg == argIdx && pathMatches(fn.Pkg().Path(), s.pkgSuffix) {
					return ""
				}
			}
			if recv != "" {
				return "is argument " + strconv.Itoa(argIdx) + " of " + recv + "." + fn.Name()
			}
			return "is passed to " + fn.Name()
		}
	}
	return escapes
}

// sumUse classifies one use of a slice of evaluation points: "" when it is
// filled, measured or summed into a bound variable, else a phrase naming the
// use.
func (ep *evalPoints) sumUse(stack []ast.Node) string {
	const escapes = "escapes (copied, returned or stored)"
	pi, self := parentOf(stack)
	if pi < 0 {
		return escapes
	}
	switch parent := stack[pi].(type) {
	case *ast.IndexExpr:
		if parent.X != self {
			break
		}
		// P[i] = …: the element must be the target of an assignment.
		if gi, elem := parentOf(stack[:pi+1]); gi >= 0 {
			if as, ok := stack[gi].(*ast.AssignStmt); ok && slices.Contains(as.Lhs, elem) {
				return ""
			}
		}
		return "has an element read"
	case *ast.CallExpr:
		if fun, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok && fun.Name == "len" {
			if _, builtin := ep.pass.Pkg.Info.Uses[fun].(*types.Builtin); builtin {
				return ""
			}
		}
		if _, ok := ep.sumCall(parent); ok && parent.Args[1] == self && ep.bound[parent] {
			return ""
		}
		return "is passed to a function other than Curve.MSM"
	}
	return escapes
}

// networkFacing reports whether the import path names a package that parses
// peer-supplied bytes: the sem and cluster protocol packages and everything
// under cmd/.
func networkFacing(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		switch seg {
		case "sem", "cluster", "cmd":
			return true
		}
	}
	return false
}

// exempt reports whether the package is a sanctioned decoder implementation.
func exempt(path string) bool {
	return path == "wire" || strings.HasSuffix(path, "/wire")
}

func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

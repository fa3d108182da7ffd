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
// that pairing value), the second argument of pairing.Params.Pair or
// PairFull, the argument of pairing.FixedPair.Pair or
// Params.PairWithGenerator, a comparison with nil, or a call of its
// IsInfinity method. Anything else — ScalarMul, Add, Marshal, a first
// pairing argument, a copy, a return, a store — is a finding: those uses
// need the [q]· check of wire.UnmarshalG1.
package boundarycheck

import (
	"go/ast"
	"go/types"
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
	{"internal/pairing", "Params", "PairFull", 1},
	{"internal/pairing", "Params", "PairWithGenerator", 0},
	{"internal/pairing", "FixedPair", "Pair", 0},
}

func run(pass *analysis.Pass) error {
	if !networkFacing(pass.Pkg.Path) || exempt(pass.Pkg.Path) {
		return nil
	}
	checkPairingArgs(pass)
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

func isPairingArgDecode(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeOf(pass, call)
	return fn != nil && fn.Pkg() != nil && fn.Name() == pairingArgDecoder && pathMatches(fn.Pkg().Path(), "internal/wire")
}

// checkPairingArgs enforces the pairing-argument rule of the package
// comment. It is a per-package, flow-insensitive check on variables: a
// variable that is ever assigned wire.UnmarshalPairingArg's result is
// restricted everywhere it appears.
func checkPairingArgs(pass *analysis.Pass) {
	info := pass.Pkg.Info
	restricted := make(map[types.Object]bool)
	bound := make(map[*ast.CallExpr]bool) // decoder calls whose result lands in a variable
	defining := make(map[*ast.Ident]bool) // the identifiers those assignments write
	bind := func(lhs []ast.Expr, rhs []ast.Expr) {
		if len(rhs) != 1 || len(lhs) != 2 || !isPairingArgDecode(pass, rhs[0]) {
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
		restricted[obj] = true
		bound[ast.Unparen(rhs[0]).(*ast.CallExpr)] = true
		defining[id] = true
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				bind(st.Lhs, st.Rhs)
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(st.Names))
				for i, name := range st.Names {
					lhs[i] = name
				}
				bind(lhs, st.Values)
			}
			return true
		})
	}

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
				if isPairingArgDecode(pass, x) && !bound[x] {
					pass.Reportf(x.Pos(), "wire.%s result must be bound to a local variable so its uses can be checked (it is not subgroup-checked)", pairingArgDecoder)
				}
			case *ast.Ident:
				if restricted[info.Uses[x]] && !defining[x] {
					if use := pairingArgUse(pass, x, stack); use != "" {
						pass.Reportf(x.Pos(), "point from wire.%s %s; it is not subgroup-checked and may only reach IBESEM.Token, ThresholdPlayer.Share or a pairing's second argument — decode with wire.UnmarshalG1", pairingArgDecoder, use)
					}
				}
			}
			return true
		})
	}
}

// pairingArgUse classifies one use of a restricted variable from its
// enclosing nodes (stack ends at the identifier): "" for a permitted use,
// else a phrase naming the forbidden one.
func pairingArgUse(pass *analysis.Pass, id *ast.Ident, stack []ast.Node) string {
	i := len(stack) - 2
	var self ast.Expr = id
	for ; i >= 0; i-- { // step out of parentheses
		p, ok := stack[i].(*ast.ParenExpr)
		if !ok {
			break
		}
		self = p
	}
	const escapes = "escapes (copied, returned or stored)"
	if i < 0 {
		return escapes
	}
	switch parent := stack[i].(type) {
	case *ast.BinaryExpr:
		other := parent.X
		if other == self {
			other = parent.Y
		}
		if tv, ok := pass.Pkg.Info.Types[other]; ok && tv.IsNil() {
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
	case *ast.CallExpr:
		fn := calleeOf(pass, parent)
		for argIdx, arg := range parent.Args {
			if arg != self {
				continue
			}
			if fn == nil || fn.Pkg() == nil {
				return "is passed to a function the rule does not know"
			}
			recv := ""
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				t := sig.Recv().Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					recv = named.Obj().Name()
				}
			}
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

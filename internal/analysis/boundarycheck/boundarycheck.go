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
// Two validated decoders check less than the others on purpose:
// wire.UnmarshalPairingArg skips the subgroup check, which is sound only for
// a pairing's evaluation point (DESIGN §7), and wire.UnmarshalPairingX the
// square root as well, for an x-only pairing's. They need no rule here,
// because they return a curve.EvalPoint — a type that only a pairing's
// second argument, core.IBESEM.Token, core.ThresholdPlayer.Share and
// curve.Curve.EvalSum accept — and a curve.EvalX, which only the x-only
// pairings and core.IBESEM.TokenX accept; the compiler refuses every other
// use.
package boundarycheck

import (
	"go/ast"
	"go/types"
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
	{"internal/curve", "UnmarshalX", "wire.UnmarshalPairingX"},
	{"internal/pairing", "GTFromBytes", "wire.UnmarshalGT"},
	{"internal/pairing", "ResolveX", "wire.UnmarshalGTX"},
	{"internal/gf", "ElementFromBytes", "wire.UnmarshalGT"},
	{"math/big", "SetBytes", "wire.UnmarshalScalar"},
}

func run(pass *analysis.Pass) error {
	if exempt(pass.Pkg.Path) || !networkFacing(pass.Pkg.Path) {
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

package boundarycheck_test

import (
	"go/ast"
	"go/parser"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/boundarycheck"
	"repro/internal/analysis/load"
)

func TestBoundaryCheck(t *testing.T) {
	analysistest.Run(t, "testdata", boundarycheck.Analyzer,
		"repro/internal/sem",
		"repro/internal/cluster",
		"repro/internal/core",
		"repro/internal/wire",
	)
}

// snippet is a function body that uses the evaluation point $V. use binds
// the three an evaluation point can be: a decoded U, a proof's stored V and
// a sum of evaluation points.
const snippet = `package snippet

import (
	"math/big"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/pairing"
	"repro/internal/wire"
)

var (
	c    *curve.Curve
	pp   *pairing.Params
	fp   *pairing.FixedPair
	sem  *core.IBESEM
	pl   *core.ThresholdPlayer
	key  *curve.Point
	k    *big.Int
	pr   *core.ShareProof
	held struct{ P *curve.Point }
	byID map[string]*curve.Point
	ex   curve.EvalX
)

func use(payload []byte) (any, error) {
	u, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil, err
	}
	sum, err := c.EvalSum([]*big.Int{k}, []curve.EvalPoint{pr.V})
	if err != nil {
		return nil, err
	}
	_, _ = u, sum
	$BODY
}
`

// typeCheck type-checks snippet with body, $V replaced by v, against the
// module's own packages.
func typeCheck(t *testing.T, l *load.Loader, body, v string) error {
	t.Helper()
	src := strings.ReplaceAll(strings.Replace(snippet, "$BODY", body, 1), "$V", v)
	f, err := parser.ParseFile(l.Fset(), "snippet.go", src, 0)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	conf := types.Config{Importer: l}
	_, err = conf.Check("repro/internal/snippet", l.Fset(), []*ast.File{f}, nil)
	return err
}

func moduleLoader(t *testing.T) *load.Loader {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := load.New(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var evalPoints = []string{"u", "pr.V", "sum"}

// TestEvalPointDoesNotCompile holds wire.UnmarshalPairingArg's result, a
// proof's V and their sums to the uses a pairing's evaluation point may
// have. Each forbidden use fails to type-check for every evaluation point
// and compiles for the G1 point key, so it is the type that refuses it.
func TestEvalPointDoesNotCompile(t *testing.T) {
	l := moduleLoader(t)
	forbidden := map[string]string{
		"ScalarMul":               "return $V.ScalarMul(k), nil",
		"receiver of Add":         "return $V.Add(key), nil",
		"argument of Add":         "return key.Add($V), nil",
		"Equal":                   "return key.Equal($V), nil",
		"first pairing argument":  "return pp.Pair($V, key)",
		"walked as a program":     "return pp.NewFixedPair($V)",
		"stored in a Point field": "held.P = $V\n\treturn nil, nil",
		"stored in a Point map":   "byID[\"id\"] = $V\n\treturn nil, nil",
		"returned as a Point":     "return func() *curve.Point { return $V }(), nil",
		"converted to a Point":    "return (*curve.Point)($V), nil",
		"summed by MSM":           "return c.MSM([]*big.Int{k}, []*curve.Point{$V})",
	}
	for name, body := range forbidden {
		if err := typeCheck(t, l, body, "key"); err != nil {
			t.Errorf("%s: does not compile for a *curve.Point either: %v", name, err)
		}
		for _, v := range evalPoints {
			if typeCheck(t, l, body, v) == nil {
				t.Errorf("%s: compiles for the evaluation point %s", name, v)
			}
		}
	}
	allowed := map[string]string{
		"IBESEM.Token":            `return sem.Token("id", $V)`,
		"second pairing argument": "return pp.Pair(key, $V)",
		"FixedPair.Pair":          "return fp.Pair($V)",
		"PairWithGenerator":       "return pp.PairWithGenerator($V)",
		"EvalSum":                 "return c.EvalSum([]*big.Int{k}, []curve.EvalPoint{$V, curve.EvalPointOf(key)})",
		"stored as a proof's V":   "pr.V = $V\n\treturn pp.Pair(key, pr.V)",
		"Marshal":                 "return $V.Marshal(), nil",
		"IsInfinity":              "return $V.IsInfinity(), nil",
	}
	for name, body := range allowed {
		for _, v := range evalPoints {
			if err := typeCheck(t, l, body, v); err != nil {
				t.Errorf("%s: does not compile for the evaluation point %s: %v", name, v, err)
			}
		}
	}
}

// TestEvalPointMethodSet: an EvalPoint offers exactly the methods a pairing
// reads and Marshal, and no field, so nothing leads back to the *curve.Point
// inside it.
func TestEvalPointMethodSet(t *testing.T) {
	pkg, err := moduleLoader(t).Import("repro/internal/curve")
	if err != nil {
		t.Fatal(err)
	}
	named := pkg.Scope().Lookup("EvalPoint").Type()
	var methods []string
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := range ms.Len() {
		if m := ms.At(i).Obj(); m.Exported() {
			methods = append(methods, m.Name())
		}
	}
	if want := []string{"IsInfinity", "Marshal", "Mont"}; !slices.Equal(methods, want) {
		t.Errorf("EvalPoint's exported methods are %v, want %v", methods, want)
	}
	st := named.Underlying().(*types.Struct)
	for i := range st.NumFields() {
		if st.Field(i).Exported() {
			t.Errorf("EvalPoint has the exported field %s", st.Field(i).Name())
		}
	}
}

// TestEvalXDoesNotCompile holds an x-only evaluation point to the x-only
// pairings and their two servers, TokenX and a threshold player's Share: it
// has no y, so every use that reads a point's y — a pairing's second
// argument, Token, EvalSum, Marshal — must fail to type-check for it, and no
// evaluation point with a y may pass where it goes.
func TestEvalXDoesNotCompile(t *testing.T) {
	l := moduleLoader(t)
	forbidden := map[string]string{
		"second pairing argument": "return pp.Pair(key, $V)",
		"FixedPair.Pair":          "return fp.Pair($V)",
		"IBESEM.Token":            `return sem.Token("id", $V)`,
		"EvalSum":                 "return c.EvalSum([]*big.Int{k}, []curve.EvalPoint{$V})",
		"Marshal":                 "return $V.Marshal(), nil",
		"converted to a Point":    "return (*curve.Point)($V), nil",
		"converted to EvalPoint":  "return curve.EvalPoint($V), nil",
	}
	for name, body := range forbidden {
		if typeCheck(t, l, body, "ex") == nil {
			t.Errorf("%s: compiles for an EvalX", name)
		}
	}
	allowed := map[string]string{
		"IBESEM.TokenX":         `return sem.TokenX("id", $V)`,
		"ThresholdPlayer.Share": `return pl.Share("id", $V)`,
		"Params.PairX":          "return pp.PairX(key, $V)",
		"FixedPair.PairX":       "return fp.PairX($V)",
		"IsInfinity":            "return $V.IsInfinity(), nil",
	}
	for name, body := range allowed {
		if err := typeCheck(t, l, body, "ex"); err != nil {
			t.Errorf("%s: does not compile for an EvalX: %v", name, err)
		}
		for _, v := range append(evalPoints, "key") {
			if name != "IsInfinity" && typeCheck(t, l, body, v) == nil {
				t.Errorf("%s: compiles for %s, which is not an EvalX", name, v)
			}
		}
	}
}

// TestEvalXMethodSet: an EvalX offers IsInfinity and its x and s, and no
// field, so nothing leads to a y or a point.
func TestEvalXMethodSet(t *testing.T) {
	pkg, err := moduleLoader(t).Import("repro/internal/curve")
	if err != nil {
		t.Fatal(err)
	}
	named := pkg.Scope().Lookup("EvalX").Type()
	var methods []string
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := range ms.Len() {
		if m := ms.At(i).Obj(); m.Exported() {
			methods = append(methods, m.Name())
		}
	}
	if want := []string{"IsInfinity", "XS"}; !slices.Equal(methods, want) {
		t.Errorf("EvalX's exported methods are %v, want %v", methods, want)
	}
	st := named.Underlying().(*types.Struct)
	for i := range st.NumFields() {
		if st.Field(i).Exported() {
			t.Errorf("EvalX has the exported field %s", st.Field(i).Name())
		}
	}
}

package pairing

import (
	"math/big"
	"testing"

	"repro/internal/curve"
	"repro/internal/pairing/pairingtest"
)

// pairFull is ê(a, b) by the affine big.Int Miller loop with every
// denominator kept (pairingtest), wrapped as a GT for comparison.
func pairFull(pp *Params, a, b *curve.Point) (*GT, error) {
	v, err := pairingtest.PairFull(pp.curve, pp.field, a, b)
	if err != nil {
		return nil, err
	}
	return &GT{v: v, pp: pp}, nil
}

// mustPair computes ê(a, b), failing the test on the (never-expected)
// internal error path.
func mustPair(t testing.TB, pp *Params, a, b *curve.Point) *GT {
	t.Helper()
	g, err := pp.Pair(a, b)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	return g
}

// mustExp computes g^k, failing the test on the internal error path.
func mustExp(t testing.TB, g *GT, k *big.Int) *GT {
	t.Helper()
	out, err := g.Exp(k)
	if err != nil {
		t.Fatalf("GT.Exp: %v", err)
	}
	return out
}

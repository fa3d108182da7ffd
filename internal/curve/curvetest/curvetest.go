// Package curvetest builds the curve points tests of the subgroup boundary
// need and production code never does: points of E(F_p) outside G1.
package curvetest

import (
	"crypto/rand"
	"math/big"
	"testing"

	"repro/internal/curve"
)

// RandomCofactorPoint returns a random point T ≠ O of the cofactor subgroup
// [q]E(F_p).
func RandomCofactorPoint(c *curve.Curve) *curve.Point {
	return randomMultiple(c, c.Q())
}

// randomMultiple returns k·R ≠ O for a random R ∈ E(F_p).
func randomMultiple(c *curve.Curve, k *big.Int) *curve.Point {
	for {
		r, err := c.RandomPoint(rand.Reader)
		if err != nil {
			continue // crypto/rand.Reader does not fail (it aborts the process instead)
		}
		if pt := r.ScalarMul(k); !pt.IsInfinity() {
			return pt
		}
	}
}

// CofactorPoints returns points of E(F_p) with no order-q component: one of
// every prime order ℓ < 2¹⁶ dividing the cofactor h = (p+1)/q (ℓ = 2 comes
// first and is the point (0, 0)), then two random elements of the whole
// cofactor subgroup [q]E(F_p).
func CofactorPoints(tb testing.TB, c *curve.Curve) []*curve.Point {
	tb.Helper()
	h := c.Cofactor()
	var out []*curve.Point
	order := new(big.Int).Mul(h, c.Q())
	for l := int64(2); l < 1<<16; l++ {
		ell := big.NewInt(l)
		if !ell.ProbablyPrime(0) || new(big.Int).Mod(h, ell).Sign() != 0 {
			continue
		}
		pt := randomMultiple(c, new(big.Int).Div(order, ell))
		if !pt.ScalarMul(ell).IsInfinity() {
			tb.Fatalf("ℓ = %d: point of wrong order", l)
		}
		out = append(out, pt)
	}
	if len(out) == 0 || out[0].Y().Sign() != 0 {
		tb.Fatal("4 | h, so the first small-order point must be the 2-torsion point (0, 0)")
	}
	for i := 0; i < 2; i++ {
		pt := RandomCofactorPoint(c)
		if pt.InSubgroup() {
			tb.Fatal("[q]R landed in G1")
		}
		out = append(out, pt)
	}
	return out
}

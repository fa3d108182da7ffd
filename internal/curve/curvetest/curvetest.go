// Package curvetest holds what the curve's tests need and production code
// never does: the affine big.Int group law every limb kernel is
// differential-tested against — chord-and-tangent Add and Double, the binary
// ladder, the term-by-term multi-scalar sum — and points of E(F_p) outside
// G1 for tests of the subgroup boundary. The oracle sees a point only through
// X, Y and NewPoint, so it shares no representation with what it checks.
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

// Open returns the point behind an evaluation point, for tests that build an
// adversarial one from an honest one: it round-trips e through Marshal and
// curve.Unmarshal, the only way back, and fails tb if the bytes do not
// decode.
func Open(tb testing.TB, c *curve.Curve, e curve.EvalPoint) *curve.Point {
	tb.Helper()
	pt, err := c.Unmarshal(e.Marshal())
	if err != nil {
		tb.Fatalf("curvetest.Open: %v", err)
	}
	return pt
}

// fromAffine builds the point (x mod p, y mod p) the oracle computed.
// NewPoint re-checks the curve equation in limbs; an oracle that left the
// curve yields nil, which fails the calling test at first use.
func fromAffine(c *curve.Curve, x, y *big.Int) *curve.Point {
	pt, _ := c.NewPoint(x, y)
	return pt
}

// Add returns P + Q using the affine chord-and-tangent rules.
//
//cryptolint:vartime (test oracle: the affine big.Int group law is variable-time by construction and never linked into a binary)
func Add(p1, p2 *curve.Point) *curve.Point {
	c := p1.Curve()
	if p1.IsInfinity() {
		return p2
	}
	if p2.IsInfinity() {
		return p1
	}
	p := c.P()
	if p1.X().Cmp(p2.X()) == 0 {
		sum := new(big.Int).Add(p1.Y(), p2.Y())
		if sum.Mod(sum, p).Sign() == 0 {
			return c.Infinity() // P + (−P)
		}
		return Double(p1)
	}
	// λ = (y2 − y1)/(x2 − x1)
	num := new(big.Int).Sub(p2.Y(), p1.Y())
	den := new(big.Int).Sub(p2.X(), p1.X())
	den.ModInverse(den, p)
	return chord(p1, p2, num.Mul(num, den))
}

// Double returns 2P.
//
//cryptolint:vartime (test oracle: the affine big.Int group law is variable-time by construction and never linked into a binary)
func Double(p1 *curve.Point) *curve.Point {
	c := p1.Curve()
	if p1.IsInfinity() {
		return p1
	}
	if p1.Y().Sign() == 0 {
		return c.Infinity() // order-2 point
	}
	// λ = (3x² + 1)/(2y)   (curve a-coefficient is 1)
	num := new(big.Int).Mul(p1.X(), p1.X())
	num.Mul(num, big.NewInt(3))
	num.Add(num, big.NewInt(1))
	den := new(big.Int).Lsh(p1.Y(), 1)
	den.ModInverse(den, c.P())
	return chord(p1, p1, num.Mul(num, den))
}

// chord completes an addition given the line slope λ through p1 and p2.
//
//cryptolint:vartime (test oracle: the affine big.Int group law is variable-time by construction and never linked into a binary)
func chord(p1, p2 *curve.Point, lambda *big.Int) *curve.Point {
	x3 := new(big.Int).Mul(lambda, lambda)
	x3.Sub(x3, p1.X())
	x3.Sub(x3, p2.X())
	y3 := new(big.Int).Sub(p1.X(), x3)
	y3.Mul(y3, lambda)
	y3.Sub(y3, p1.Y())
	return fromAffine(p1.Curve(), x3, y3) // NewPoint reduces mod p
}

// ScalarMulBinary is the affine left-to-right double-and-add ladder over
// big.Int coordinates: the correctness oracle for the Jacobian/w-NAF path.
func ScalarMulBinary(pt *curve.Point, k *big.Int) *curve.Point {
	c := pt.Curve()
	if pt.IsInfinity() || k.Sign() == 0 {
		return c.Infinity()
	}
	base, scalar := pt, k
	if k.Sign() < 0 {
		base, scalar = Neg(pt), new(big.Int).Neg(k)
	}
	acc := c.Infinity()
	for i := scalar.BitLen() - 1; i >= 0; i-- {
		acc = Double(acc)
		if scalar.Bit(i) == 1 {
			acc = Add(acc, base)
		}
	}
	return acc
}

// Neg returns −P = (x, p − y).
//
//cryptolint:vartime (test oracle: the affine big.Int group law is variable-time by construction and never linked into a binary)
func Neg(pt *curve.Point) *curve.Point {
	if pt.IsInfinity() {
		return pt
	}
	return fromAffine(pt.Curve(), pt.X(), new(big.Int).Neg(pt.Y()))
}

// MSMSequential is the term-by-term oracle for curve.MSM: Σ scalars[i]·points[i]
// with one binary ladder per term and affine additions.
func MSMSequential(c *curve.Curve, scalars []*big.Int, points []*curve.Point) *curve.Point {
	acc := c.Infinity()
	for i := range points {
		acc = Add(acc, ScalarMulBinary(points[i], scalars[i]))
	}
	return acc
}

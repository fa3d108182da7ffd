// Package pairingtest holds the pairing's correctness oracle: the original
// affine Miller loop over big.Int coordinates, one ModInverse per step, with
// every vertical-line factor tracked instead of eliminated. It is written
// against the public curve (X, Y, the curvetest group law) and gf APIs and
// imports nothing of package pairing, so pairing's own tests can call it and
// it shares neither a representation nor a loop with what it checks.
package pairingtest

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/gf"
)

// PairFull computes the reduced pairing value ê(p1, q1) over the curve c and
// its extension field fld along the affine Miller loop without denominator
// elimination. ê(P, O) = ê(O, Q) = 1. It returns an error only on degenerate
// line slopes, which valid odd-order inputs never produce.
func PairFull(c *curve.Curve, fld *gf.Field, p1, q1 *curve.Point) (*gf.Element, error) {
	if p1.IsInfinity() || q1.IsInfinity() {
		return fld.One(), nil
	}
	f, err := millerAffine(c, fld, p1, q1, true)
	if err != nil {
		return nil, err
	}
	// (p²−1)/q = (p−1)·(p+1)/q; a zero Miller value (impossible for valid
	// inputs) pairs to 1 as it does in package pairing.
	v, err := new(gf.Element).ExpUnitaryPart(f, c.Cofactor())
	if err != nil {
		return fld.One(), nil
	}
	return v, nil
}

// millerAffine evaluates f_{q,P}(φ(Q)) by the original affine Miller loop.
// When withDenominators is true, vertical-line factors are divided out
// explicitly; otherwise they are skipped (denominator elimination).
//
// With φ(Q) = (−x_Q, i·y_Q), the line through V with slope λ evaluated at
// φ(Q) is
//
//	l(φQ) = i·y_Q − y_V − λ·(−x_Q − x_V)  =  (−y_V − λ·(−x_Q − x_V)) + y_Q·i
//
// whose real part stays in F_p, so each step multiplies f by a cheap
// "almost-F_p" element.
//
//cryptolint:vartime (test oracle: the affine big.Int Miller loop is variable-time by construction and never linked into a binary)
func millerAffine(c *curve.Curve, fld *gf.Field, p1, q1 *curve.Point, withDenominators bool) (*gf.Element, error) {
	pMod := c.P()
	xQneg := new(big.Int).Neg(q1.X())
	xQneg.Mod(xQneg, pMod)
	yQ := q1.Y()

	f := fld.One()
	fden := fld.One()
	v := p1
	n := c.Q()

	lineAt := func(vPt *curve.Point, lambda *big.Int) *gf.Element {
		// real = −y_V − λ·(−x_Q − x_V) mod p
		re := new(big.Int).Sub(xQneg, vPt.X())
		re.Mul(re, lambda)
		re.Add(re, vPt.Y())
		re.Neg(re)
		re.Mod(re, pMod)
		return fld.NewElement(re, yQ)
	}
	vertical := func(xV *big.Int) *gf.Element {
		// x(φQ) − x_V = −x_Q − x_V ∈ F_p
		re := new(big.Int).Sub(xQneg, xV)
		re.Mod(re, pMod)
		return fld.FromInt(re)
	}
	// step multiplies f by the line through V with slope λ and, with
	// denominators, fden by the vertical at the new V.
	step := func(lambda *big.Int, next *curve.Point) {
		f.Mul(f, lineAt(v, lambda))
		v = next
		if withDenominators && !v.IsInfinity() {
			fden.Mul(fden, vertical(v.X()))
		}
	}

	for i := n.BitLen() - 2; i >= 0; i-- {
		f.Square(f)
		if withDenominators {
			fden.Square(fden)
		}
		if !v.IsInfinity() {
			if v.Y().Sign() == 0 {
				// Order-2 point: tangent is vertical (cannot occur in the
				// odd-order subgroup, handled for completeness).
				f.Mul(f, vertical(v.X()))
				v = curvetest.Double(v)
			} else {
				lambda, err := TangentSlope(v, pMod)
				if err != nil {
					return nil, err
				}
				step(lambda, curvetest.Double(v))
			}
		}
		if n.Bit(i) == 1 && !v.IsInfinity() {
			switch {
			case v.Equal(curvetest.Neg(p1)):
				// Line through V and P is vertical.
				if withDenominators {
					f.Mul(f, vertical(p1.X()))
				}
				v = c.Infinity()
			case v.Equal(p1):
				lambda, err := TangentSlope(v, pMod)
				if err != nil {
					return nil, err
				}
				step(lambda, curvetest.Double(v))
			default:
				lambda, err := ChordSlope(v, p1, pMod)
				if err != nil {
					return nil, err
				}
				step(lambda, curvetest.Add(v, p1))
			}
		}
	}
	if withDenominators {
		inv, err := new(gf.Element).Inverse(fden)
		if err != nil {
			return nil, fmt.Errorf("pairingtest: invert denominator product: %w", err)
		}
		f.Mul(f, inv)
	}
	return f, nil
}

// ErrBadSlope reports a line-slope denominator that is not invertible mod p.
// It cannot arise for points on the curve over a prime field (2y and x_W−x_V
// are nonzero in the branches that compute a slope), so seeing it means the
// inputs were corrupted; the affine loop surfaces it instead of letting
// big.Int.ModInverse return nil and crash a later multiplication.
var ErrBadSlope = errors.New("pairingtest: line slope denominator is not invertible")

// TangentSlope returns (3x² + 1)/(2y) mod p at v.
//
//cryptolint:vartime (test oracle: the affine big.Int Miller loop is variable-time by construction and never linked into a binary)
func TangentSlope(v *curve.Point, p *big.Int) (*big.Int, error) {
	num := new(big.Int).Mul(v.X(), v.X())
	num.Mul(num, big.NewInt(3))
	num.Add(num, big.NewInt(1))
	num.Mod(num, p)
	den := new(big.Int).Lsh(v.Y(), 1)
	if den.ModInverse(den, p) == nil {
		return nil, fmt.Errorf("%w: 2·y_V not invertible mod p", ErrBadSlope)
	}
	num.Mul(num, den)
	num.Mod(num, p)
	return num, nil
}

// ChordSlope returns (y_W − y_V)/(x_W − x_V) mod p.
//
//cryptolint:vartime (test oracle: the affine big.Int Miller loop is variable-time by construction and never linked into a binary)
func ChordSlope(v, w *curve.Point, p *big.Int) (*big.Int, error) {
	num := new(big.Int).Sub(w.Y(), v.Y())
	den := new(big.Int).Sub(w.X(), v.X())
	if den.ModInverse(den, p) == nil {
		return nil, fmt.Errorf("%w: x_W − x_V not invertible mod p", ErrBadSlope)
	}
	num.Mul(num, den)
	num.Mod(num, p)
	return num, nil
}

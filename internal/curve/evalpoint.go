package curve

import (
	"fmt"
	"math/big"
)

// EvalArg is what a pairing reads of its second argument, the point its
// Miller lines are evaluated at: whether it is O, and its coordinates.
// *Point and EvalPoint satisfy it.
type EvalArg interface {
	IsInfinity() bool
	Mont() (x, y []uint64)
}

// EvalPoint is a point of E(F_p) that may only be a pairing's evaluation
// point: a point a peer sent that is on the curve but not known to be in G1
// (wire.UnmarshalPairingArg). The reduced pairing's second argument lives in
// E/qE, so a cofactor component in it is invisible to a pairing whose walked
// argument is in G1 (DESIGN §7). Every other use — a scalar multiple, a sum
// with a G1 point, a first pairing argument, a comparison — would see that
// component, so EvalPoint has none of them and no way back to *Point. What
// it has: the EvalArg methods, Marshal, and sums of evaluation points
// (Curve.EvalSum). The zero EvalPoint is O.
type EvalPoint struct{ p *Point }

// EvalPointOf widens pt to an evaluation point. Widening is always sound: a
// point of G1 is one of E(F_p).
func EvalPointOf(pt *Point) EvalPoint { return EvalPoint{pt} }

// IsInfinity reports whether e is O.
func (e EvalPoint) IsInfinity() bool { return e.p.IsInfinity() }

// Mont returns the coordinates as (*Point).Mont does; nil for O.
func (e EvalPoint) Mont() (x, y []uint64) {
	if e.p == nil {
		return nil, nil
	}
	return e.p.Mont()
}

// Marshal encodes e as (*Point).Marshal does; nil for the zero EvalPoint.
// The bytes can only be used again through a decoder, which re-establishes
// what the point may be used for.
func (e EvalPoint) Marshal() []byte {
	if e.p == nil {
		return nil
	}
	return e.p.Marshal()
}

// EvalSum returns Σ ks[i]·vs[i], computed by MSM, which is exact on all of
// E(F_p): the cofactor parts of the terms add up to the cofactor part of the
// sum, so the sum is again only an evaluation point. A zero EvalPoint is
// refused as MSM refuses a nil point.
func (c *Curve) EvalSum(ks []*big.Int, vs []EvalPoint) (EvalPoint, error) {
	pts := make([]*Point, len(vs))
	for i, v := range vs {
		pts[i] = v.p
	}
	sum, err := c.MSM(ks, pts)
	return EvalPoint{sum}, err
}

// EvalX is the x-coordinate of a pairing's evaluation point Q and
// s = x³ + x = y_Q², both in Montgomery form: all an x-only pairing reads of
// Q (pairing.FixedPair.PairX), which answers ê(P, Q) up to the sign of y_Q
// for the holder of y_Q to resolve. It holds no y and has no way back to a
// *Point or an EvalPoint. Only a decoder makes one — Curve.UnmarshalX,
// through wire.UnmarshalPairingX at a network boundary — and it makes one
// only for x ≠ 0 whose s is a nonzero square: the abscissa of a point of
// E(F_p) other than O and the 2-torsion point (0, 0). The zero EvalX reads
// as O.
type EvalX struct{ x, s []uint64 }

// IsInfinity reports whether e is the zero EvalX.
func (e EvalX) IsInfinity() bool { return e.x == nil }

// XS returns x and s, the decoder's own storage — read, never write;
// nil for the zero EvalX.
func (e EvalX) XS() (x, s []uint64) { return e.x, e.s }

// UnmarshalX parses a compressed point as an x-only evaluation point. It
// accepts exactly the encodings Unmarshal accepts whose point is neither O
// nor (0, 0), and takes no square root: the sign tag, 2 or 3, is read as
// neither, and s = x³ + x is checked to be a square by its Legendre symbol.
// Refused: a wrong length, tag 0 and unknown tags, x ≥ p, x = 0 (s = 0,
// where the ring an x-only pairing runs in is not a field) and a non-square
// s (ErrNotOnCurve: then j² = −s splits, and the pairing would evaluate its
// lines at the F_p-rational point (−x, √−s) — DESIGN §7).
//
//cryptolint:vartime (branches on the encoding's tag, range and residuosity: a decoder's verdicts about bytes it was handed)
func (c *Curve) UnmarshalX(data []byte) (EvalX, error) {
	size := c.CoordinateSize()
	if len(data) != 1+size {
		return EvalX{}, fmt.Errorf("curve: compressed point must be %d bytes, got %d", 1+size, len(data))
	}
	switch data[0] {
	case 2, 3:
	case 0:
		return EvalX{}, fmt.Errorf("curve: the point at infinity is not an x-only evaluation point")
	default:
		return EvalX{}, fmt.Errorf("curve: unknown compression tag 0x%02x", data[0]) //cryptolint:public (the format tag byte, not coordinate material)
	}
	F := c.fld
	n := F.Limbs()
	slab := make([]uint64, 2*n)
	e := EvalX{x: slab[:n:n], s: slab[n:]}
	if F.SetBytes(e.x, data[1:]) != nil {
		return EvalX{}, fmt.Errorf("curve: x-coordinate out of range")
	}
	if F.IsZero(e.x) {
		return EvalX{}, fmt.Errorf("curve: x = 0 (the 2-torsion point) is not an x-only evaluation point")
	}
	c.rhs(e.s, e.x)
	if F.Legendre(e.s) != 1 {
		return EvalX{}, ErrNotOnCurve
	}
	return e, nil
}

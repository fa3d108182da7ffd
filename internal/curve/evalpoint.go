package curve

import "math/big"

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

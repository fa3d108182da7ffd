package pairing

import (
	"math/big"

	"repro/internal/curve"
	"repro/internal/fp"
	"repro/internal/gf"
)

// The x-only pairing (Galbraith and Lin, "Computing pairings using
// x-coordinates only", Des. Codes Cryptogr. 50, 2009). A Miller line
// evaluated at φ(Q) is L + y_Q·i with L = α·x_Q + β, so only the line's
// imaginary part reads y_Q. Writing j for y_Q·i, j² = −s with s = x_Q³ + x_Q,
// which x_Q alone gives: the Miller loop and the final exponentiation run in
// F_p[j]/(j² + s), and their value X + Y·j is ê(P, Q) = X + (Y·y_Q)·i once
// the holder of y_Q multiplies it in (Params.ResolveX). For a square s the
// ring is F_p² by j ↦ y_Q·i; curve.EvalX exists only for such s (DESIGN §7).
//
// The ring costs more than F_p²: a square is four products where F_p²'s is
// two (gf.Element.SquareJ), a line fold four, as MulLine's. What it saves is
// the square root that decoding Q's y takes, so it serves a party that has
// Q only as bytes — the SEM answering ibe_token — and nobody who holds y_Q.

// GTX is a pairing value computed from the evaluation point's abscissa
// alone (PairX): (X, Y) with ê(P, Q) = X + (Y·y_Q)·i for the y_Q of the
// party that holds Q, and ê(P, Q)⁻¹ with −y_Q. It is not a GT element
// before it is resolved (Resolve), and offers nothing else but its bytes
// and its powers (ExpSecretX).
type GTX struct {
	v  *gf.Element
	pp *Params
}

// Bytes returns X‖Y at the width of GT.Bytes.
func (g GTX) Bytes() []byte { return g.v.Bytes() }

// Resolve returns X + (Y·y_q)·i, which is ê(P, q) when g is PairX(P, x(q)).
// An O q leaves g as it is, the 1 PairX answers for the zero EvalX. The
// result's GT membership is not checked.
func (g GTX) Resolve(q curve.EvalArg) *GT { return g.pp.resolve(g.v.Copy(), q) }

// resolve maps v from q's ring onto F_p² in place, as Resolve describes.
func (pp *Params) resolve(v *gf.Element, q curve.EvalArg) *GT {
	if q != nil && !q.IsInfinity() {
		_, y := q.Mont()
		v.FromJ(v, y)
	}
	return &GT{v: v, pp: pp}
}

// ResolveX parses the bytes of a GTX — X‖Y as GT.Bytes lays them out, both
// coordinates canonical — and resolves them with q's y (GTX.Resolve); a nil
// q leaves them as they are. wire.UnmarshalGTX checks the result's GT
// membership, for bytes from a peer.
func (pp *Params) ResolveX(data []byte, q curve.EvalArg) (*GT, error) {
	v, err := pp.field.ElementFromBytes(data)
	if err != nil {
		return nil, err
	}
	return pp.resolve(v, q), nil
}

// UnresolveX returns the x-only forms of gs for q: X + (b/y_q)·j for each
// g = X + b·i, the GTX whose Resolve(q) is g — what a party that paired
// against q's abscissa holds, computed by one that holds q. One
// constant-time inversion of y_q serves them all. A q whose abscissa no
// x-only pairing reads — O, or (0, 0) with y = 0, for which
// curve.EvalXOf gives the zero EvalX — leaves gs as they are, as Resolve
// leaves the 1 PairX answers there.
func (pp *Params) UnresolveX(q curve.EvalArg, gs ...*GT) []GTX {
	out := make([]GTX, len(gs))
	vs := pp.field.NewElements(len(gs))
	F := pp.field.Fp()
	var ib [fp.MaxLimbs]uint64
	inv := ib[:F.Limbs()]
	invertible := q != nil && !q.IsInfinity()
	if invertible {
		_, y := q.Mont()
		invertible = F.Inv(inv, y) == nil
	}
	for i, g := range gs {
		if invertible {
			vs[i].FromJ(g.v, inv)
		} else {
			vs[i].Set(g.v)
		}
		out[i] = GTX{v: &vs[i], pp: pp}
	}
	return out
}

// ExpSecretX returns b^k and g^k for one exponent k that must stay secret,
// as ExpSecretEach does for GT bases: b a GT value prepared by SecretBase,
// g a value of the ring of q (PairX against q's abscissa). The trace ladder
// reads only traces, so the two rings share its one call; g's power is
// recovered with 1/(Y·s) in place of 1/Im (gf.Element.ImInverseJ). g must
// have norm 1 in its ring, X² + s·Y² = 1, as every PairX value has;
// another is refused (ErrNotUnitary).
func (pp *Params) ExpSecretX(k *big.Int, b *SecretBase, g GTX, q curve.EvalX) (*GT, GTX, error) {
	_, s := q.XS() // nil for the zero EvalX, whose PairX value is 1 in F_p²
	if !g.v.IsUnitaryJ(s) {
		return nil, GTX{}, ErrNotUnitary
	}
	n := pp.field.Fp().Limbs()
	var invG [fp.MaxLimbs]uint64
	g.v.ImInverseJ(invG[:n], s)
	w1, w2 := new(gf.Element), new(gf.Element)
	pp.field.ExpUnitaries([]*gf.Element{w1, w2}, []*gf.Element{b.g.v, g.v}, [][]uint64{b.invIm[:n], invG[:n]}, pp.secretExponent(k), pp.q.BitLen())
	return &GT{v: w1, pp: pp}, GTX{v: w2, pp: pp}, nil
}

// PairX computes ê(P, Q) from Q's abscissa by a Miller loop on
// F_p[j]/(j² + s): a plain pairing's walk of P, its lines folded in the
// ring. Bit-identical to Pair(P, Q) once resolved with Q's y. ê(O, Q) and
// ê(P, O) are 1.
func (pp *Params) PairX(p1 *curve.Point, q curve.EvalX) (GTX, error) {
	if p1.IsInfinity() || q.IsInfinity() {
		return GTX{v: pp.field.One(), pp: pp}, nil
	}
	x, s := q.XS()
	live := []livePair{{mv: newMillerVars(pp.field.Fp(), p1), xQ: x}}
	return GTX{v: pp.finalExp(pp.millerProduct(live, s), s), pp: pp}, nil
}

// PairX computes ê(P, Q) for the fixed P from Q's abscissa by replaying the
// precomputed line program in F_p[j]/(j² + s): Pair's replay with SquareJ
// and MulLineJ for Square and MulLine, or the whole replay in one call on
// the lane engine where the field kernel has it (gf.Element.ReplayJ; its
// F_p* factor is gone after the final exponentiation). Bit-identical to
// Pair(Q) once resolved with Q's y. ê(P, O) = 1.
func (fp *FixedPair) PairX(q curve.EvalX) (GTX, error) {
	pp := fp.pp
	if q.IsInfinity() {
		return GTX{v: pp.field.One(), pp: pp}, nil
	}
	x, s := q.XS()
	f := pp.field.One()
	if f.ReplayJ(fp.kinds, fp.lines, x, s) {
		return GTX{v: pp.finalExp(f, s), pp: pp}, nil
	}
	w, line := len(x), fp.lines
	for _, k := range fp.kinds {
		if k&stepSquare != 0 { //cryptolint:public (the program's shape, which q fixes)
			f.SquareJ(f, s)
		}
		if k&stepLine != 0 { //cryptolint:public (the program's shape, which q fixes)
			f.MulLineJ(line[w:2*w], line[:w], x, s)
			line = line[2*w:]
		}
	}
	return GTX{v: pp.finalExp(f, s), pp: pp}, nil
}

package pairing

import (
	"repro/internal/curve"
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
// before it is resolved, and offers nothing but its bytes, which the holder
// of y_Q resolves (ResolveX).
type GTX struct{ v *gf.Element }

// Bytes returns X‖Y at the width of GT.Bytes.
func (g GTX) Bytes() []byte { return g.v.Bytes() }

// ResolveX parses the bytes of a GTX — X‖Y as GT.Bytes lays them out, both
// coordinates canonical — and resolves them with q's y: X + (Y·y_q)·i, which
// is ê(P, q) when the bytes are PairX(P, x(q))'s. An O q leaves them as they
// are, the 1 PairX answers for the zero EvalX. The result's GT membership is
// not checked; wire.UnmarshalGTX checks it, for bytes from a peer.
func (pp *Params) ResolveX(data []byte, q curve.EvalArg) (*GT, error) {
	v, err := pp.field.ElementFromBytes(data)
	if err != nil {
		return nil, err
	}
	if q != nil && !q.IsInfinity() {
		_, y := q.Mont()
		v.FromJ(v, y)
	}
	return &GT{v: v, pp: pp}, nil
}

// PairX computes ê(P, Q) from Q's abscissa by a Miller loop on
// F_p[j]/(j² + s): a plain pairing's walk of P, its lines folded in the
// ring. Bit-identical to Pair(P, Q) once resolved with Q's y. ê(O, Q) and
// ê(P, O) are 1.
func (pp *Params) PairX(p1 *curve.Point, q curve.EvalX) (GTX, error) {
	if p1.IsInfinity() || q.IsInfinity() {
		return GTX{pp.field.One()}, nil
	}
	x, s := q.XS()
	live := []livePair{{mv: newMillerVars(pp.field.Fp(), p1), xQ: x}}
	return GTX{pp.finalExp(pp.millerProduct(live, s), s)}, nil
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
		return GTX{pp.field.One()}, nil
	}
	x, s := q.XS()
	f := pp.field.One()
	if f.ReplayJ(fp.kinds, fp.lines, x, s) {
		return GTX{pp.finalExp(f, s)}, nil
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
	return GTX{pp.finalExp(f, s)}, nil
}

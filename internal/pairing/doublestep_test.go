package pairing

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp"
)

// genericDoubleStep is doubleStep on the generic a = 1 Jacobian doubling,
// the formulas the b = 0 step replaced, kept as the reference it must
// equal: M = 3X² + Z⁴, S = 4XY², X' = M² − 2S, Y' = M·(S − X') − 8Y⁴,
// Z' = 2YZ, and the tangent a = M·X − 2Y², b = M·Z², c = Z'·Z², with the
// same exceptional cases (V = O and 2V = O emit no line).
func genericDoubleStep(F *fp.Field, X, Y, Z, a, b, c []uint64) bool {
	if F.IsZero(Z) {
		return false
	}
	if F.IsZero(Y) {
		F.SetZero(Z)
		return false
	}
	xx, yy, zz, s, m, yyyy := F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt()
	F.Square(xx, X)
	F.Square(yy, Y)
	F.Square(zz, Z)
	F.Mul(s, X, yy)
	F.Double(s, s)
	F.Double(s, s)
	F.Square(m, zz)
	F.Add(m, m, xx)
	F.Add(m, m, xx)
	F.Add(m, m, xx)
	F.Mul(a, m, X)
	F.Sub(a, a, yy)
	F.Sub(a, a, yy)
	F.Mul(b, m, zz)
	F.Mul(Z, Y, Z)
	F.Double(Z, Z)
	F.Mul(c, Z, zz)
	F.Square(X, m)
	F.Sub(X, X, s)
	F.Sub(X, X, s)
	F.Square(yyyy, yy)
	F.Double(yyyy, yyyy)
	F.Double(yyyy, yyyy)
	F.Double(yyyy, yyyy)
	F.Sub(Y, s, X)
	F.Mul(Y, Y, m)
	F.Sub(Y, Y, yyyy)
	return true
}

// TestDoubleStepMatchesGenericFormulas holds the Miller walk's doubling,
// which leans on y² = x³ + x to skip Y², to the
// generic a = 1 doubling with its tangent, limb for limb and not after
// normalisation: the new point and all three line coefficients, at toy, fast
// and paper size, for random points of G1 and of the full group under Z = 1
// and random Jacobian scales, for the 2-torsion point (0, 0) and for V = O.
// The addition step's V = P case, which doubles from (x_P, y_P, 1), is held
// to the same reference.
func TestDoubleStepMatchesGenericFormulas(t *testing.T) {
	for _, name := range []string{"toy", "fast", "paper"} {
		t.Run(name, func(t *testing.T) {
			pp, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cv := pp.Curve()
			F := pp.field.Fp()
			clone := func(v []uint64) []uint64 { return append([]uint64(nil), v...) }
			randElt := func() []uint64 {
				v, err := rand.Int(rand.Reader, cv.P())
				if err != nil {
					t.Fatal(err)
				}
				z := F.NewElt()
				if err := F.FromBig(z, v); err != nil {
					t.Fatal(err)
				}
				return z
			}
			two, err := cv.NewPoint(big.NewInt(0), big.NewInt(0))
			if err != nil {
				t.Fatal(err)
			}
			pts := []*curve.Point{two}
			for i := 0; i < 16; i++ {
				P, err := cv.RandomPoint(rand.Reader)
				if i%2 == 0 {
					P = randPoint(t, pp)
				}
				if err != nil {
					t.Fatal(err)
				}
				pts = append(pts, P)
			}
			one := F.NewElt()
			F.SetOne(one)
			for i, P := range pts {
				mv := newMillerVars(F, P)
				// setV sets V = (x_P·λ², y_P·λ³, λ), a representative of P.
				setV := func(lambda []uint64) {
					l2 := F.NewElt()
					F.Square(l2, lambda)
					F.Mul(mv.X, mv.xP, l2)
					F.Mul(mv.Y, mv.yP, l2)
					F.Mul(mv.Y, mv.Y, lambda)
					F.Set(mv.Z, lambda)
				}
				for k, lambda := range [][]uint64{one, randElt(), randElt()} {
					// For k = 2, the identity (λ, λ, 0) instead.
					setV(lambda)
					if k == 2 {
						F.Set(mv.X, lambda)
						F.Set(mv.Y, lambda)
						F.SetZero(mv.Z)
					}
					X, Y, Z := clone(mv.X), clone(mv.Y), clone(mv.Z)
					a, b, c := F.NewElt(), F.NewElt(), F.NewElt()
					wa, wb, wc := F.NewElt(), F.NewElt(), F.NewElt()
					want := genericDoubleStep(F, X, Y, Z, wa, wb, wc)
					got := mv.doubleStep(a, b, c)
					what := fmt.Sprintf("point %d, scale %d", i, k)
					if got != want || !F.Equal(mv.Z, Z) {
						t.Fatalf("%s: doubleStep = %v with Z' = %x, the generic step %v with Z' = %x", what, got, mv.Z, want, Z)
					}
					if !want {
						continue
					}
					for j, pair := range [][2][]uint64{{mv.X, X}, {mv.Y, Y}, {a, wa}, {b, wb}, {c, wc}} {
						if !F.Equal(pair[0], pair[1]) {
							t.Fatalf("%s: output %d of (X', Y', a, b, c) is %x, the generic step gives %x", what, j, pair[0], pair[1])
						}
					}
				}
				if F.IsZero(mv.yP) {
					continue
				}
				// V = P under a random scale: addStep doubles from (x_P, y_P, 1).
				setV(randElt())
				X, Y, Z := clone(mv.xP), clone(mv.yP), clone(one)
				a, b, c := F.NewElt(), F.NewElt(), F.NewElt()
				wa, wb, wc := F.NewElt(), F.NewElt(), F.NewElt()
				if !genericDoubleStep(F, X, Y, Z, wa, wb, wc) || !mv.addStep(a, b, c) {
					t.Fatalf("point %d: V = P emitted no line", i)
				}
				for j, pair := range [][2][]uint64{{mv.X, X}, {mv.Y, Y}, {mv.Z, Z}, {a, wa}, {b, wb}, {c, wc}} {
					if !F.Equal(pair[0], pair[1]) {
						t.Fatalf("point %d, V = P: output %d of (X', Y', Z', a, b, c) is %x, the generic step gives %x", i, j, pair[0], pair[1])
					}
				}
			}
		})
	}
}

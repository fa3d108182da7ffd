package curve_test

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/curve"
	"repro/internal/fp"
)

// genericDouble is the a = 1 Jacobian doubling that ljDouble's b = 0
// formulas replaced — S = 4XY², M = 3X² + Z⁴, X' = M² − 2S,
// Y' = M·(S − X') − 8Y⁴, Z' = 2YZ — kept as the reference they must equal.
func genericDouble(F *fp.Field, x, y, z []uint64) {
	xx, yy, zz, s, m, yyyy := F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt(), F.NewElt()
	F.Square(xx, x)
	F.Square(yy, y)
	F.Square(zz, z)
	F.Mul(s, x, yy)
	F.Double(s, s)
	F.Double(s, s)
	F.Square(m, zz)
	F.Add(m, m, xx)
	F.Add(m, m, xx)
	F.Add(m, m, xx)
	F.Mul(z, y, z)
	F.Double(z, z)
	F.Square(x, m)
	F.Sub(x, x, s)
	F.Sub(x, x, s)
	F.Square(yyyy, yy)
	F.Double(yyyy, yyyy)
	F.Double(yyyy, yyyy)
	F.Double(yyyy, yyyy)
	F.Sub(y, s, x)
	F.Mul(y, y, m)
	F.Sub(y, y, yyyy)
}

// jacobian returns the limbs of (x·λ², y·λ³, λ), a Jacobian representative
// of the affine point (x, y), for λ in Montgomery form.
func jacobian(F *fp.Field, x, y, lambda []uint64) (X, Y, Z []uint64) {
	l2 := F.NewElt()
	F.Square(l2, lambda)
	X, Y, Z = F.NewElt(), F.NewElt(), append([]uint64(nil), lambda...)
	F.Mul(X, x, l2)
	F.Mul(Y, y, l2)
	F.Mul(Y, Y, lambda)
	return X, Y, Z
}

// TestDoublingMatchesGenericFormulas holds ljDouble, which leans on the curve
// equation to skip Y², to the generic a = 1 doubling limb for limb — not
// after normalisation — at toy, fast and paper size: random points of G1 and
// of the full group under random Jacobian scales and Z = 1, the 2-torsion
// point (0, 0) under the same, and the identity as newLimbJacs makes it. An
// identity with other X and Y (what a mixed addition leaves after P + (−P))
// must come out with Z = 0 as well, which is all a reader of an identity
// looks at.
func TestDoublingMatchesGenericFormulas(t *testing.T) {
	for name, c := range map[string]*curve.Curve{"toy": toyCurve(t), "fast": fastCurve(t), "paper": paperCurve(t)} {
		t.Run(name, func(t *testing.T) {
			F := c.Fp()
			randElt := func() []uint64 {
				v, err := rand.Int(rand.Reader, c.P())
				if err != nil {
					t.Fatal(err)
				}
				z := F.NewElt()
				if err := F.FromBig(z, v); err != nil {
					t.Fatal(err)
				}
				return z
			}
			one := F.NewElt()
			F.SetOne(one)
			var pts [][2][]uint64
			for i := 0; i < 24; i++ {
				P, err := c.RandomPoint(rand.Reader)
				if i%2 == 0 {
					P, err = c.RandomG1(rand.Reader)
				}
				if err != nil {
					t.Fatal(err)
				}
				x, y := P.Mont()
				pts = append(pts, [2][]uint64{x, y})
			}
			pts = append(pts, [2][]uint64{F.NewElt(), F.NewElt()}) // (0, 0)
			clone := func(v []uint64) []uint64 { return append([]uint64(nil), v...) }
			check := func(what string, X, Y, Z []uint64, zOnly bool) {
				t.Helper()
				gx, gy, gz := clone(X), clone(Y), clone(Z)
				curve.LjDouble(F, gx, gy, gz)
				wx, wy, wz := clone(X), clone(Y), clone(Z)
				genericDouble(F, wx, wy, wz)
				if !F.Equal(gz, wz) || !zOnly && (!F.Equal(gx, wx) || !F.Equal(gy, wy)) {
					t.Fatalf("%s: 2·(%x, %x, %x) = (%x, %x, %x), the generic doubling gives (%x, %x, %x)",
						what, X, Y, Z, gx, gy, gz, wx, wy, wz)
				}
			}
			for i, pt := range pts {
				for _, lambda := range [][]uint64{one, randElt(), randElt()} {
					X, Y, Z := jacobian(F, pt[0], pt[1], lambda)
					check(fmt.Sprintf("point %d", i), X, Y, Z, false)
				}
			}
			X, Y, Z := curve.IdentityJac(F)
			check("identity", X, Y, Z, false)
			if !F.IsZero(Z) {
				t.Fatal("the identity has Z ≠ 0")
			}
			check("identity with X, Y ≠ 0", randElt(), randElt(), Z, true)
		})
	}
}

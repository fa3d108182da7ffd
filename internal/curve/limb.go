// Jacobian-coordinate arithmetic over internal/fp Montgomery limbs: the layer
// every group operation runs on. A Point already is a pair of limb vectors,
// so a kernel reads its inputs in place (as the affine side of a mixed
// addition, or copied into an accumulator with Z = 1), works in Jacobian form
// with no inversion, and normalises into a fresh Point's limbs exactly once.
//
// A Jacobian triple (X, Y, Z) with Z ≠ 0 denotes the affine point
// (X/Z², Y/Z³); Z = 0 denotes the point at infinity. When several points need
// normalising at the same time (precomputation tables, Pippenger buckets),
// Montgomery's simultaneous-inversion trick shares a single inversion among
// all of them. Equal group elements have equal affine coordinates, so every
// kernel is bit-identical to the affine big.Int group law of curvetest it is
// differential-tested against.
//
// The addition formulas are the standard ones for short Weierstrass curves;
// the doubling is the one for y² = x³ + x, b = 0 (Costello, Hisil, Boyd,
// González Nieto and Wong, "Faster Pairings on Special Weierstrass Curves"),
// which gives the same field elements as the generic a = 1 doubling
// (S = 4XY², M = 3X² + Z⁴, X' = M² − 2S, Y' = M(S − X') − 8Y⁴) on every
// point of the curve, without Y²:
//
//	doubling:   A = X², B = Z², C = B², E = A − C,
//	            X' = E², Y' = E(E² + 8AC), Z' = 2YZ
//	mixed add:  U2 = x·Z², S2 = y·Z³, H = U2 − X, R = S2 − Y,
//	            X' = R² − H³ − 2XH², Y' = R(XH² − X') − YH³, Z' = ZH
//
// The same formulas, interleaved with line-coefficient extraction, drive
// the inversion-free Miller loop in internal/pairing.
package curve

import "repro/internal/fp"

// newElts allocates k zero field elements carved from one slab.
func newElts(F *fp.Field, k int) [][]uint64 {
	n := F.Limbs()
	slab := make([]uint64, k*n)
	out := make([][]uint64, k)
	for i := range out {
		out[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// limbJac is a mutable Jacobian point over fp limb vectors in Montgomery
// form: (X, Y, Z) with Z ≠ 0 denotes (X/Z², Y/Z³); Z = 0 is the identity.
type limbJac struct {
	x, y, z []uint64
}

func newLimbJac(F *fp.Field) limbJac {
	return newLimbJacs(F, 1)[0]
}

// newLimbJacs allocates k identity points (Z = 0) sharing one slab.
func newLimbJacs(F *fp.Field, k int) []limbJac {
	e := newElts(F, 3*k)
	out := make([]limbJac, k)
	for i := range out {
		out[i] = limbJac{x: e[3*i], y: e[3*i+1], z: e[3*i+2]}
	}
	return out
}

// set copies u into v.
//
//cryptolint:hotpath
func (v *limbJac) set(F *fp.Field, u *limbJac) {
	F.Set(v.x, u.x)
	F.Set(v.y, u.y)
	F.Set(v.z, u.z)
}

// setAffine loads the Montgomery-form affine point (ax, ay) with Z = 1.
//
//cryptolint:hotpath
func (v *limbJac) setAffine(F *fp.Field, ax, ay []uint64) {
	F.Set(v.x, ax)
	F.Set(v.y, ay)
	F.SetOne(v.z)
}

// ljScratch holds the temporaries for a chain of limb Jacobian operations;
// one instance per goroutine, reused across every step.
type ljScratch struct {
	t1, t2, t3, t4, t5, t6, t7, t8 []uint64
}

func newLjScratch(F *fp.Field) *ljScratch {
	e := newElts(F, 8)
	return &ljScratch{t1: e[0], t2: e[1], t3: e[2], t4: e[3], t5: e[4], t6: e[5], t7: e[6], t8: e[7]}
}

// ljDouble sets v = 2v in place on y² = x³ + x, the same straight line of
// field operations for every v. With A = X², B = Z², C = B² and E = A − C,
//
//	X' = E², Y' = E·(E² + 8AC), Z' = 2YZ,
//
// four squarings and three multiplications: the curve gives Y² = X·(A + C),
// under which the generic doubling's M² − 2S is E² and its
// M·(S − X') − 8Y⁴ is E·(E² + 8AC) (M = 3A + C, S = 4XY²), the same field
// elements, so Y² is never formed. Every v handed here is on the curve or
// has Z = 0 (the fuzz tests assert it); the identity and the 2-torsion point
// both come out as Z' = 2YZ = 0, which is all any reader of an identity looks
// at.
//
//cryptolint:hotpath
func ljDouble(F *fp.Field, v *limbJac, s *ljScratch) {
	if checkDouble != nil {
		checkDouble(F, v.x, v.y, v.z)
	}
	a := s.t1
	F.Square(a, v.x)
	b := s.t2
	F.Square(b, v.z)

	// Z' = 2·Y·Z (before Y is overwritten)
	F.Mul(v.z, v.y, v.z)
	F.Double(v.z, v.z)

	c := s.t3
	F.Square(c, b)
	ac := s.t4 // 8·A·C
	F.Mul(ac, a, c)
	F.Double(ac, ac)
	F.Double(ac, ac)
	F.Double(ac, ac)

	// X' = E²
	e := s.t5
	F.Sub(e, a, c)
	F.Square(v.x, e)

	// Y' = E·(E² + 8·A·C)
	F.Add(ac, ac, v.x)
	F.Mul(v.y, e, ac)
}

// checkDouble, when set, sees every point ljDouble is handed, before the
// doubling. Only the package's fuzz tests set it (WatchDoublings); it is nil
// in every binary.
var checkDouble func(F *fp.Field, x, y, z []uint64)

// ljAddMixed sets v = v + (ax, ay) in place for a Montgomery-form affine
// non-identity point A, handling the degenerate cases: v = O loads the
// point, v = A doubles, v = −A yields O.
//
//cryptolint:hotpath
//cryptolint:vartime (branches on the exceptional points Z = 0 and H = 0; the secret-scalar kernels never meet them and call ljMixedDiff and ljMixedChord bare)
func ljAddMixed(F *fp.Field, v *limbJac, ax, ay []uint64, s *ljScratch) {
	if F.IsZero(v.z) {
		v.setAffine(F, ax, ay)
		return
	}
	h, r := ljMixedDiff(F, v, ax, ay, s)
	if F.IsZero(h) {
		if F.IsZero(r) {
			ljDouble(F, v, s)
		} else {
			F.SetZero(v.z)
		}
		return
	}
	ljMixedChord(F, v, h, r, s)
}

// ljMixedDiff returns the two differences a mixed addition v + (ax, ay) is
// made of, H = x·Z² − X and R = y·Z³ − Y, in s.t2 and s.t3 (s.t1 is spent):
// H = 0 says the two points share their x, and then R = 0 that they are equal.
//
//cryptolint:hotpath
func ljMixedDiff(F *fp.Field, v *limbJac, ax, ay []uint64, s *ljScratch) (h, r []uint64) {
	zz := s.t1
	F.Square(zz, v.z)
	h = s.t2
	F.Mul(h, ax, zz) // U2 = x·Z²
	r = s.t3
	F.Mul(r, ay, zz) // S2 = y·Z³
	F.Mul(r, r, v.z)
	F.Sub(h, h, v.x)
	F.Sub(r, r, v.y)
	return h, r
}

// ljMixedChord finishes v = v + A from ljMixedDiff's H and R by the chord
// formulas and nothing else — one straight line of field operations, right
// whenever v ≠ O and v ≠ ±A (for H = 0 it leaves Z' = 0).
//
//cryptolint:hotpath
func ljMixedChord(F *fp.Field, v *limbJac, h, r []uint64, s *ljScratch) {
	hh := s.t4
	F.Square(hh, h)
	hhh := s.t5
	F.Mul(hhh, hh, h)
	xh2 := s.t6
	F.Mul(xh2, v.x, hh)

	// Z' = Z·H
	F.Mul(v.z, v.z, h)

	// X' = R² − H³ − 2·X·H²
	F.Square(v.x, r)
	F.Sub(v.x, v.x, hhh)
	F.Sub(v.x, v.x, xh2)
	F.Sub(v.x, v.x, xh2)

	// Y' = R·(X·H² − X') − Y·H³
	F.Sub(xh2, xh2, v.x)
	F.Mul(xh2, xh2, r)
	F.Mul(hhh, hhh, v.y)
	F.Sub(v.y, xh2, hhh)
}

// ljAdd sets v = v + u in place for two general Jacobian points (the
// bucket-sum and window-merge additions, where neither side is affine).
// Standard Z1Z1/Z2Z2 formulas; v = u degenerates to a doubling, v = −u
// to the identity.
//
//cryptolint:hotpath
//cryptolint:vartime (branches on the exceptional points Z = 0 and H = 0)
func ljAdd(F *fp.Field, v, u *limbJac, s *ljScratch) {
	if F.IsZero(u.z) {
		return
	}
	if F.IsZero(v.z) {
		v.set(F, u)
		return
	}
	z1z1 := s.t1
	F.Square(z1z1, v.z)
	z2z2 := s.t2
	F.Square(z2z2, u.z)
	u1 := s.t3
	F.Mul(u1, v.x, z2z2)
	u2 := s.t4
	F.Mul(u2, u.x, z1z1)
	s1 := s.t5
	F.Mul(s1, v.y, u.z)
	F.Mul(s1, s1, z2z2)
	s2 := s.t6
	F.Mul(s2, u.y, v.z)
	F.Mul(s2, s2, z1z1)

	h := u2 // H = U2 − U1
	F.Sub(h, u2, u1)
	r := s2 // R = S2 − S1
	F.Sub(r, s2, s1)

	if F.IsZero(h) {
		if F.IsZero(r) {
			ljDouble(F, v, s)
		} else {
			F.SetZero(v.z)
		}
		return
	}

	hh := s.t7
	F.Square(hh, h)
	hhh := s.t8
	F.Mul(hhh, hh, h)
	u1hh := u1 // U1·H²
	F.Mul(u1hh, u1, hh)

	// Z3 = Z1·Z2·H
	F.Mul(v.z, v.z, u.z)
	F.Mul(v.z, v.z, h)

	// X3 = R² − H³ − 2·U1·H²
	F.Square(v.x, r)
	F.Sub(v.x, v.x, hhh)
	F.Sub(v.x, v.x, u1hh)
	F.Sub(v.x, v.x, u1hh)

	// Y3 = R·(U1·H² − X3) − S1·H³
	F.Sub(u1hh, u1hh, v.x)
	F.Mul(u1hh, u1hh, r)
	F.Mul(hhh, hhh, s1)
	F.Sub(v.y, u1hh, hhh)
}

// ljBatchNormalize converts every non-identity point in pts to affine form
// (Z = 1) in place with Montgomery's simultaneous-inversion trick: one
// inversion plus three multiplications per point. prefix is a caller-owned
// slab of at least len(pts) field elements reused across calls.
// Identity points are left untouched (Z stays 0).
//
//cryptolint:hotpath
//cryptolint:vartime (skips identity points: which of them are is a property of public operands in every caller but the secret kernels, whose tables hold none)
func ljBatchNormalize(F *fp.Field, pts []limbJac, prefix [][]uint64, s *ljScratch) error {
	acc := s.t1
	F.SetOne(acc)
	live := 0
	for i := range pts {
		if F.IsZero(pts[i].z) {
			continue
		}
		F.Set(prefix[i], acc)
		F.Mul(acc, acc, pts[i].z)
		live++
	}
	if live == 0 {
		return nil
	}
	if err := F.Inv(acc, acc); err != nil {
		// Unreachable: every factor is a nonzero residue mod the prime p.
		return err
	}
	zInv := s.t2
	zInv2 := s.t3
	for i := len(pts) - 1; i >= 0; i-- {
		if F.IsZero(pts[i].z) {
			continue
		}
		F.Mul(zInv, acc, prefix[i])
		F.Mul(acc, acc, pts[i].z)
		F.Square(zInv2, zInv)
		F.Mul(pts[i].x, pts[i].x, zInv2)
		F.Mul(pts[i].y, pts[i].y, zInv2)
		F.Mul(pts[i].y, pts[i].y, zInv)
		F.SetOne(pts[i].z)
	}
	return nil
}

// ljToPoint normalizes v into a fresh immutable Point with one inversion of
// Z: the canonical coordinates of the group element.
//
//cryptolint:vartime (the identity is answered without an inversion)
func (c *Curve) ljToPoint(v *limbJac, s *ljScratch) *Point {
	F := c.fld
	if F.IsZero(v.z) {
		return c.Infinity()
	}
	zInv := s.t1
	if err := F.Inv(zInv, v.z); err != nil {
		return c.Infinity() // unreachable: Z ≠ 0 mod prime p
	}
	zInv2 := s.t2
	F.Square(zInv2, zInv)
	pt := c.newPoint()
	F.Mul(pt.x, v.x, zInv2)
	F.Mul(pt.y, v.y, zInv2)
	F.Mul(pt.y, pt.y, zInv)
	return pt
}

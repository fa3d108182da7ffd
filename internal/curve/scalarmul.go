// Scalar multiplication strategies.
//
// Variable base: width-w NAF over the limb Jacobian layer. The scalar is
// recoded into signed odd digits so that on average only 1/(w+1) of the
// loop iterations perform an addition (vs 1/2 for double-and-add), and the
// odd multiples ±P, ±3P, …, ±(2^(w−1)−1)P are precomputed once and
// batch-normalized to affine so the loop uses cheap mixed additions. One
// ladder serves ScalarMul, cofactor clearing and the subgroup check. The
// scalar steers it, so it is for public scalars only.
//
// Fixed base has one kernel, the constant-time SecretComb (secretmul.go):
// every long-lived base, the generator included, is multiplied by scalars
// that are secret more often than not.
package curve

import (
	"math/big"

	"repro/internal/mathx"
)

// wnafWidth picks the NAF window for a scalar of the given bit length:
// the precomputation (2^(w−2) points) must amortize over bits/(w+1)
// additions saved.
func wnafWidth(bits int) uint {
	switch {
	case bits >= 128:
		return 5
	case bits >= 24:
		return 4
	default:
		return 2 // plain NAF
	}
}

// naf is a positive scalar in width-w non-adjacent form.
type naf struct {
	w      uint
	digits []int8 // least significant first
}

// oddMultiples is the number of table entries a ladder over k needs: odd
// digits reach 2^(w−1)−1, so the 2^(w−2) multiples {1, 3, …, 2^(w−1)−1}.
func (k naf) oddMultiples() int { return 1 << (k.w - 2) }

// recode returns the w-NAF of the positive scalar k at the width its size
// calls for.
//
//cryptolint:vartime (the width follows the scalar's length and the digits its bits: public scalars only — a secret one goes to ScalarMulSecret)
func recode(k *big.Int) naf {
	w := wnafWidth(k.BitLen())
	return naf{w: w, digits: mathx.WNAF(k, w)}
}

// ladder is the package's one w-NAF scalar-multiplication loop: it returns
// Σ ks[i]·pts[i] (every pts[i] ≠ O) in Jacobian form for the recoded positive
// scalars, leaving the caller to normalize the result or — the subgroup
// check — only test it for the identity. The terms are interleaved
// (Straus): each has its own table of odd multiples and its own digit
// string, and all of them share the one accumulator, so n terms cost one
// run of doublings and one table inversion instead of n. A single term is
// the plain w-NAF ladder.
//
//cryptolint:vartime (zero digits are skipped and a digit indexes its table entry: the scalars are public — q, the cofactor, verification coefficients)
func (c *Curve) ladder(pts []*Point, ks []naf, s *ljScratch) (limbJac, error) {
	F := c.fld

	// Term i's row of the table holds the odd multiples of pts[i]; the whole
	// table is batch-normalized with one inversion so the loop below uses
	// only mixed additions. An order-2 base has 2P = O, which ljAdd ignores:
	// every odd multiple then equals P.
	size, steps := 0, 0
	for _, k := range ks {
		size += k.oddMultiples()
		steps = max(steps, len(k.digits))
	}
	table := newLimbJacs(F, size)
	twoP := newLimbJac(F)
	off := 0
	for i, k := range ks {
		bx, by := pts[i].x, pts[i].y
		row := table[off : off+k.oddMultiples()]
		off += len(row)
		row[0].setAffine(F, bx, by)
		if len(row) > 1 {
			twoP.setAffine(F, bx, by)
			ljDouble(F, &twoP, s)
			for j := 1; j < len(row); j++ {
				row[j].set(F, &row[j-1])
				ljAdd(F, &row[j], &twoP, s)
			}
		}
	}
	if size > len(ks) {
		if err := ljBatchNormalize(F, table, newElts(F, size), s); err != nil {
			return limbJac{}, err
		}
	}

	ny := F.NewElt()
	acc := newLimbJac(F)
	for i := steps - 1; i >= 0; i-- {
		ljDouble(F, &acc, s)
		off = 0
		for _, k := range ks {
			row := table[off : off+k.oddMultiples()]
			off += len(row)
			if i >= len(k.digits) || k.digits[i] == 0 {
				continue
			}
			d := k.digits[i]
			neg := d < 0
			if neg {
				d = -d
			}
			e := &row[(d-1)/2]
			if F.IsZero(e.z) {
				continue // odd multiple collapsed to O (tiny-order base): adds nothing
			}
			if neg {
				F.Neg(ny, e.y)
				ljAddMixed(F, &acc, e.x, ny, s)
			} else {
				ljAddMixed(F, &acc, e.x, e.y, s)
			}
		}
	}
	return acc, nil
}

// mulRecoded returns k·pt for the recoding of a positive scalar k.
func (pt *Point) mulRecoded(rec naf) *Point {
	if pt.IsInfinity() {
		return pt
	}
	c := pt.curve
	s := newLjScratch(c.fld)
	acc, err := c.ladder([]*Point{pt}, []naf{rec}, s)
	if err != nil {
		return c.Infinity() // unreachable for prime p (see ljBatchNormalize)
	}
	return c.ljToPoint(&acc, s)
}

// ScalarMul returns k·P. Negative scalars are handled as (−k)·(−P).
//
// The multiplication runs on the limb Jacobian layer with a width-w NAF
// recoding of the scalar; the result is normalized once, so outputs are
// bit-identical to the affine double-and-add ladder (curvetest, the
// differential-test oracle). The scalar steers the ladder — digits, skipped
// additions, table reads — so it is for public scalars; a secret one goes to
// ScalarMulSecret.
//
//cryptolint:vartime (the w-NAF path for public scalars; sign handling is math/big's)
func (pt *Point) ScalarMul(k *big.Int) *Point {
	if pt.IsInfinity() || k.Sign() == 0 {
		return pt.curve.Infinity()
	}
	base := pt
	scalar := k
	if k.Sign() < 0 {
		base = pt.Neg()
		scalar = new(big.Int).Neg(k)
	}
	return base.mulRecoded(recode(scalar))
}

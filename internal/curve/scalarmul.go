// Scalar multiplication strategies.
//
// Variable base: width-w NAF over the limb Jacobian layer. The scalar is
// recoded into signed odd digits so that on average only 1/(w+1) of the
// loop iterations perform an addition (vs 1/2 for double-and-add), and the
// odd multiples ±P, ±3P, …, ±(2^(w−1)−1)P are precomputed once and
// batch-normalized to affine so the loop uses cheap mixed additions. One
// ladder serves ScalarMul, cofactor clearing and the subgroup check.
//
// Fixed base: a Precomputed radix-2^w table (single-table comb) holding
// d·2^(wj)·P for every window j and digit d. A fixed-base multiply is then
// just one table lookup and one mixed addition per window — no doublings at
// all — at the cost of (2^w − 1)·⌈bits/w⌉ stored affine points.
package curve

import (
	"fmt"
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

// Precomputed is a fixed-base scalar-multiplication table for a long-lived
// point (the G1 generator, the PKG public key, key halves): a radix-2^w
// comb storing d·2^(wj)·base for every window j and digit d ∈ [1, 2^w−1].
// Immutable and safe for concurrent use after construction.
type Precomputed struct {
	curve   *Curve //cryptolint:public (curve parameters)
	base    *Point
	order   *big.Int //cryptolint:public (the point's public order)
	windows int
	// table[j·(2^w−1) + d−1] = d·2^(wj)·base as a Montgomery-form affine
	// point (Z = 1), or Z = 0 where that multiple is the identity.
	table []limbJac
}

// precompWindow is the fixed-base radix; 4 keeps the table at
// (2^4−1)·⌈|q|/4⌉ points (600 for a 160-bit order) while cutting a
// multiply to ⌈|q|/4⌉ mixed additions.
const precompWindow = 4

// precompPerWindow is the number of stored multiples per window.
const precompPerWindow = 1<<precompWindow - 1

// NewPrecomputed builds the fixed-base table for base, whose order must be
// the given positive integer (q for G1 points). Building costs one pass of
// Jacobian arithmetic plus two batch normalizations; afterwards every
// ScalarMul is ~⌈bits(order)/w⌉ mixed additions and a single inversion.
func NewPrecomputed(base *Point, order *big.Int) (*Precomputed, error) {
	if base == nil || base.IsInfinity() {
		return nil, fmt.Errorf("curve: cannot precompute the point at infinity")
	}
	if order == nil || order.Sign() <= 0 {
		return nil, fmt.Errorf("curve: precomputation needs a positive point order")
	}
	c := base.curve
	F := c.fld
	windows := (order.BitLen() + precompWindow - 1) / precompWindow
	s := newLjScratch(F)

	// Window bases 2^(wj)·base by repeated doubling, normalized together.
	bases := newLimbJacs(F, windows)
	bases[0].setAffine(F, base.x, base.y)
	for j := 1; j < windows; j++ {
		bases[j].set(F, &bases[j-1])
		for b := 0; b < precompWindow; b++ {
			ljDouble(F, &bases[j], s)
		}
	}
	if err := ljBatchNormalize(F, bases, newElts(F, windows), s); err != nil {
		return nil, err
	}

	// Each window's multiples 1·B, 2·B, …, (2^w−1)·B by repeated mixed
	// addition of its base B; a window whose base is O stays all-identity.
	table := newLimbJacs(F, windows*precompPerWindow)
	for j := range bases {
		if F.IsZero(bases[j].z) {
			continue
		}
		row := table[j*precompPerWindow:]
		row[0].set(F, &bases[j])
		for d := 1; d < precompPerWindow; d++ {
			row[d].set(F, &row[d-1])
			ljAddMixed(F, &row[d], bases[j].x, bases[j].y, s)
		}
	}
	if err := ljBatchNormalize(F, table, newElts(F, len(table)), s); err != nil {
		return nil, err
	}
	return &Precomputed{
		curve:   c,
		base:    base,
		order:   new(big.Int).Set(order),
		windows: windows,
		table:   table,
	}, nil
}

// Base returns the point the table was built for.
func (pc *Precomputed) Base() *Point { return pc.base }

// TableSize returns the number of stored points (memory diagnostics).
func (pc *Precomputed) TableSize() int { return len(pc.table) }

// ScalarMul returns (k mod order)·base using only table lookups and mixed
// additions — no doublings. The result is the same group element (and the
// same affine encoding) that base.ScalarMul(k) produces. Zero digits are
// skipped and a digit indexes its table row: for a secret scalar and a fixed
// secret base there is SecretComb.
//
//cryptolint:vartime (digit-indexed table reads and zero-digit skips follow the scalar)
func (pc *Precomputed) ScalarMul(k *big.Int) *Point {
	c := pc.curve
	F := c.fld
	kr := new(big.Int).Mod(k, pc.order)
	if kr.Sign() == 0 {
		return c.Infinity()
	}
	words := scalarWords(kr)
	s := newLjScratch(F)
	acc := newLimbJac(F)
	for j := 0; j < pc.windows; j++ {
		d := windowDigit(words, j*precompWindow, precompWindow)
		if d == 0 {
			continue
		}
		e := &pc.table[j*precompPerWindow+int(d)-1]
		if F.IsZero(e.z) {
			continue
		}
		ljAddMixed(F, &acc, e.x, e.y, s)
	}
	return c.ljToPoint(&acc, s)
}

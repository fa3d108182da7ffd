// Scalar multiplication by a secret: the mediator's path, and the package's
// one fixed-base kernel.
//
// ScalarMul lets the scalar choose what it does — where the w-NAF digits
// fall, which additions are skipped, which table entry is read — which is the
// right economy for a public scalar and a timing oracle for a secret one. The
// two kernels here do the same thing for every scalar in [0, q): the same
// doublings and additions in the same order, every table row read for every
// digit, no branch or address taken from the scalar.
//
// Both rest on one recoding (fp.SignedBits). An
// odd k̃ < 2^L is written with L signed bits
//
//	k̃ = Σ_{i<L} bᵢ·2^i,  b_{L−1} = +1,  bᵢ = +1 if bit i+1 of k̃ is set, else −1
//
// (the bits of (k̃ + 2^L − 1)/2), so every digit cut from it — w adjacent
// bits for the window, w bits spaced d apart for the comb — is odd, never
// zero, and of a fixed size. Any k in [0, q) is made such a k̃ in [1, q)
// without a branch: an even k is replaced by the odd q − k and the result
// negated, and k = 0 runs as k̃ = 1 with O answered at the end. Keeping
// k̃ < q is what keeps the group law's exceptional cases out of the loop: every
// partial sum is an odd multiple m·base with |m| < q, so no accumulator is O
// and no addition before the last meets ±itself; the last one can be a
// doubling for one k̃ per order (k̃ = q + 2·D₀), and is computed both ways and
// selected. DESIGN §7 has the argument and the bounds (q ≥ 2^7 for the
// window, (w−1)·d + 5 ≤ |q| for the comb), which New's callers meet at every
// parameter size; an order too small for them is refused.
package curve

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/fp"
)

// ErrOrderTooSmall is returned by the secret-scalar kernels on a curve whose
// subgroup order is under minSecretOrderBits bits: their exceptional-case
// argument needs room above the window, and such a group protects nothing.
var ErrOrderTooSmall = errors.New("curve: subgroup order too small for the secret-scalar kernels")

const (
	// secretWindow is ScalarMulSecret's fixed window: 2^(w−1) = 8 odd
	// multiples, each read in full for each of ⌈|q|/4⌉ digits.
	secretWindow = 4

	// combMaxTeeth bounds SecretComb's width: 2^(6−1) = 32 affine rows, 4 KB
	// at paper size, all scanned once per column of ⌈|q|/6⌉.
	combMaxTeeth = 6

	minSecretOrderBits = 8
)

// secretOps counts what a secret kernel did — group operations, table rows
// read, field inversions — for the tests that require the counts to be the
// same for every scalar.
type secretOps struct {
	Doubles, Adds, CompleteAdds, RowsRead, Inversions int
}

// secretBase checks what both kernels ask of their base: a point of
// G1 ∖ {O} (ErrNotInSubgroup — the verdict is memoized on the point, and
// every in-repo caller's base already carries it) on a curve whose order
// leaves the recoding room.
func (pt *Point) secretBase() error {
	if err := pt.Validate(); err != nil {
		return err
	}
	if pt.curve.q.BitLen() < minSecretOrderBits {
		return ErrOrderTooSmall
	}
	return nil
}

// secretScalar conditions k for the signed kernels (fp.SignedBits, over q): the
// L sign bits of the odd representative of ±k in [1, q), whether the product
// must be negated and whether it is O. A scalar outside [0, 2^|q|) is reduced
// first.
func (c *Curve) secretScalar(k *big.Int, L int) (signs []uint64, neg, zero int) {
	if k.Sign() < 0 || k.BitLen() > c.q.BitLen() {
		k = new(big.Int).Mod(k, c.q) //cryptolint:public (a scalar outside the kernels' contract — a secret caller's is already in [0, q); GeneratorMul's API takes any integer — is brought into it by math/big, which tells a timer no more than that)
	}
	return fp.SignedBits(k, c.q, L)
}

// affineRows packs the x and y of normalised points (Z = 1) into the table
// the kernels read: one row of 2n words, x ‖ y, per point.
func affineRows(F *fp.Field, pts []limbJac) []uint64 {
	n := F.Limbs()
	rows := make([]uint64, 2*n*len(pts))
	for i := range pts {
		F.Set(rows[2*n*i:], pts[i].x)
		F.Set(rows[2*n*i+n:], pts[i].y)
	}
	return rows
}

// secretWalk is one run of a signed kernel, shared by the window and the
// comb: an accumulator, the row just picked and the scratch under them.
type secretWalk struct {
	c        *Curve
	s        *ljScratch
	acc, tmp limbJac
	x, y     []uint64 // the row just picked: the two halves of row
	row, ny  []uint64 // x ‖ y, and scratch for −y
	ops      secretOps
}

func (c *Curve) newSecretWalk() *secretWalk {
	F := c.fld
	n := F.Limbs()
	js := newLimbJacs(F, 2)
	e := make([]uint64, 3*n)
	return &secretWalk{c: c, s: newLjScratch(F), acc: js[0], tmp: js[1], x: e[:n], y: e[n : 2*n], row: e[:2*n], ny: e[2*n:]}
}

// pick reads the signed table entry the digit at (start, stride) names into
// the walk (fp.SignedDigit: w adjacent sign bits, or one column of a comb):
// one of 2^(w−1) affine points, x ‖ y, every one of them read (fp.Lookup),
// negated when the digit is.
func (k *secretWalk) pick(rows, signs []uint64, start, stride, w int) {
	idx, plus := fp.SignedDigit(signs, start, stride, w)
	fp.Lookup(k.row, rows, idx)
	k.c.fld.Neg(k.ny, k.y)
	fp.Select(k.y, k.y, k.ny, plus)
	k.ops.RowsRead += 1 << uint(w-1)
}

// load starts the accumulator at the picked row: the top digit.
func (k *secretWalk) load() { k.acc.setAffine(k.c.fld, k.x, k.y) }

// add folds the picked row into the accumulator after doubling it `doubles`
// times: acc = 2^doubles·acc ± row. The last digit takes the addition that is
// also right when the two operands are the same point.
func (k *secretWalk) add(doubles int, last bool) {
	F := k.c.fld
	for i := 0; i < doubles; i++ {
		ljDouble(F, &k.acc, k.s)
	}
	k.ops.Doubles += doubles
	h, r := ljMixedDiff(F, &k.acc, k.x, k.y, k.s)
	if !last {
		ljMixedChord(F, &k.acc, h, r, k.s)
		k.ops.Adds++
		return
	}
	// acc ≠ −row here as everywhere (the sum is k̃·base ≠ O), so H = 0 means
	// acc = row: the chord degenerates and the tangent is the answer.
	same := fp.IsZeroBit(h)
	ljMixedChord(F, &k.acc, h, r, k.s)
	k.tmp.setAffine(F, k.x, k.y)
	ljDouble(F, &k.tmp, k.s)
	fp.Select(k.acc.x, k.tmp.x, k.acc.x, same)
	fp.Select(k.acc.y, k.tmp.y, k.acc.y, same)
	fp.Select(k.acc.z, k.tmp.z, k.acc.z, same)
	k.ops.CompleteAdds++
}

// finish turns the accumulator into the product's Point: the sign k's
// parity asked for, one constant-time inversion of a Z that saw the whole
// scalar, and O when the scalar was zero — a verdict the published product
// carries anyway.
func (k *secretWalk) finish(neg, zero int) *Point {
	F := k.c.fld
	F.Neg(k.ny, k.acc.y)
	fp.Select(k.acc.y, k.ny, k.acc.y, neg)
	pt := k.c.ljToPoint(&k.acc, k.s)
	k.ops.Inversions++
	if zero == 1 { //cryptolint:public (the product O is what the caller publishes for k ≡ 0)
		return k.c.Infinity()
	}
	if !pt.IsInfinity() {
		pt.g1.Store(1) // a multiple of a G1 point
	}
	return pt
}

// ScalarMulSecret returns (k mod q)·P for a point P of G1 ∖ {O} and a secret
// scalar k, bit-identical to P.ScalarMul(k): a fixed-window ladder over the
// signed recoding above whose doublings, additions and table reads are the
// same for every k in [0, q). The eight odd multiples of P are normalised by
// the constant-time inverse, as is the product, so that P itself may be
// secret too (a key share). About a tenth dearer than ScalarMul's w-NAF at
// paper size; public scalars stay there. ErrNotInSubgroup for any other P.
func (pt *Point) ScalarMulSecret(k *big.Int) (*Point, error) {
	out, _, err := pt.scalarMulSecret(k)
	return out, err
}

func (pt *Point) scalarMulSecret(k *big.Int) (*Point, secretOps, error) {
	if err := pt.secretBase(); err != nil {
		return nil, secretOps{}, err
	}
	c := pt.curve
	F := c.fld
	walk := c.newSecretWalk()

	// P, 3P, …, 15P: none is O and no addition meets ±2P, for q > 17.
	const w = secretWindow
	rows := newLimbJacs(F, 1<<(w-1))
	rows[0].setAffine(F, pt.x, pt.y)
	twoP := &walk.tmp
	twoP.setAffine(F, pt.x, pt.y)
	ljDouble(F, twoP, walk.s)
	for j := 1; j < len(rows); j++ {
		rows[j].set(F, &rows[j-1])
		ljAdd(F, &rows[j], twoP, walk.s)
	}
	if err := ljBatchNormalize(F, rows, newElts(F, len(rows)), walk.s); err != nil {
		return nil, secretOps{}, fmt.Errorf("curve: secret-scalar table: %w", err)
	}
	walk.ops = secretOps{Doubles: 1, Adds: len(rows) - 1, Inversions: 1}
	table := affineRows(F, rows)

	digits := (c.q.BitLen() + w - 1) / w
	signs, neg, zero := c.secretScalar(k, digits*w)
	for i := digits - 1; i >= 0; i-- {
		walk.pick(table, signs, i*w, 1, w)
		if i == digits-1 {
			walk.load()
			continue
		}
		walk.add(w, i == 0)
	}
	return walk.finish(neg, zero), walk.ops, nil
}

// SecretComb is the fixed-base form of ScalarMulSecret for a long-lived
// point — a key share multiplied by a fresh nonce on every request, or the
// generator behind pairing.Params.GeneratorMul, whose scalars are keys and
// encryption nonces: a signed comb of w teeth spaced d = ⌈|q|/w⌉ apart, whose 2^(w−1) affine
// rows hold ±2^((w−1)d)·P ± … ± 2^d·P ± P for every choice of the lower
// signs. A multiplication is d − 1 doublings and d additions, each reading
// all the rows, where the window ladder pays |q| and ⌈|q|/4⌉ — under half
// its time at paper size, for 4 KB and a build that costs about one ladder.
// Reading every row is what a wider comb would pay for: at paper size seven
// teeth already cost more than they save (DESIGN §7). Immutable and safe for
// concurrent use.
type SecretComb struct {
	curve          *Curve //cryptolint:public (curve parameters)
	teeth, spacing int
	rows           []uint64 // 2^(teeth−1) affine points, x ‖ y each
}

// combTeeth picks the comb's width for a |q|-bit order: the widest up to
// combMaxTeeth whose rows stay far enough under q that no partial sum of a
// build or a multiplication can vanish modulo q — (w−1)·⌈bits/w⌉ + 5 ≤ bits,
// which w = 1 meets from 5 bits up.
func combTeeth(bits int) int {
	w := combMaxTeeth
	for (w-1)*((bits+w-1)/w)+5 > bits {
		w--
	}
	return w
}

// NewSecretComb builds the comb of base, which must be a point of G1 ∖ {O}
// (curve.ErrNotInSubgroup otherwise, as NewFixedPair answers): (w−1)·d
// doublings, 2^(w−1) + w − 2 additions and one batch normalisation.
func NewSecretComb(base *Point) (*SecretComb, error) {
	if base == nil {
		return nil, fmt.Errorf("%w: nil point", ErrNotInSubgroup)
	}
	if err := base.secretBase(); err != nil {
		return nil, err
	}
	c := base.curve
	F := c.fld
	s := newLjScratch(F)
	w := combTeeth(c.q.BitLen())
	d := (c.q.BitLen() + w - 1) / w

	// teeth[t] = 2^(td)·P along one chain of doublings.
	teeth := newLimbJacs(F, w)
	cur := newLimbJac(F)
	cur.setAffine(F, base.x, base.y)
	for t := 0; t < w; t++ {
		teeth[t].set(F, &cur)
		if t < w-1 {
			for i := 0; i < d; i++ {
				ljDouble(F, &cur, s)
			}
		}
	}

	// Row 0 is the top tooth minus all the others; flipping the sign of
	// tooth t in a row already built adds 2·teeth[t]. Each row is an odd
	// multiple of P below 2^((w−1)d+1) < q, as is every sum on the way, so
	// the general addition never meets an exceptional pair.
	rows := newLimbJacs(F, 1<<(w-1))
	rows[0].set(F, &teeth[w-1])
	for t := w - 2; t >= 0; t-- {
		F.Neg(cur.y, teeth[t].y)
		F.Set(cur.x, teeth[t].x)
		F.Set(cur.z, teeth[t].z)
		ljAdd(F, &rows[0], &cur, s)
		ljDouble(F, &teeth[t], s)
	}
	for idx := 1; idx < len(rows); idx++ {
		t := bits.TrailingZeros(uint(idx))
		rows[idx].set(F, &rows[idx&(idx-1)])
		ljAdd(F, &rows[idx], &teeth[t], s)
	}
	if err := ljBatchNormalize(F, rows, newElts(F, len(rows)), s); err != nil {
		return nil, fmt.Errorf("curve: secret comb: %w", err)
	}

	return &SecretComb{curve: c, teeth: w, spacing: d, rows: affineRows(F, rows)}, nil
}

// ScalarMul returns (k mod q)·base for a secret scalar k, bit-identical to
// base.ScalarMul(k), with the same operations for every k in [0, q).
func (sc *SecretComb) ScalarMul(k *big.Int) *Point {
	out, _ := sc.scalarMul(k)
	return out
}

func (sc *SecretComb) scalarMul(k *big.Int) (*Point, secretOps) {
	w, d := sc.teeth, sc.spacing
	walk := sc.curve.newSecretWalk()
	signs, neg, zero := sc.curve.secretScalar(k, w*d)
	for j := d - 1; j >= 0; j-- {
		walk.pick(sc.rows, signs, j, d, w)
		if j == d-1 {
			walk.load()
			continue
		}
		walk.add(1, j == 0)
	}
	return walk.finish(neg, zero), walk.ops
}

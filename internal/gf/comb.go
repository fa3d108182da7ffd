package gf

import (
	"errors"
	"math/big"

	"repro/internal/fp"
)

// combTeeth is UnitaryComb's width: 2^(6−1) = 32 rows, 4 KB at paper size,
// all read once per column of ⌈|q|/6⌉.
const combTeeth = 6

// UnitaryComb is the fixed-base form of ExpSecret for a long-lived element g
// of odd order q in the norm-1 subgroup — a pairing value raised to a fresh
// secret exponent on every request. It is curve.SecretComb in a
// multiplicative group: a signed comb of w teeth spaced d = ⌈|q|/w⌉ apart over
// fp.SignedBits, whose 2^(w−1) rows hold g^(±1 ± 2^d ± … + 2^((w−1)d)) for
// every choice of the lower signs. A negative digit takes the row's
// conjugate, which is its inverse because g is unitary; an exponentiation is
// d − 1 squarings and d multiplications, each reading all the rows — the same
// for every exponent, a quarter of ExpSecret's walk at 160 bits. A field has no
// exceptional products, so there is nothing else to handle. Immutable and safe
// for concurrent use.
type UnitaryComb struct {
	f       *Field
	order   *big.Int //cryptolint:public (the group order)
	spacing int
	rows    []uint64 // 2^(combTeeth−1) rows of 2n words, a ‖ b
}

// NewUnitaryComb builds the comb of g, which must lie in the subgroup given (a
// pairing value and GT), by that subgroup's own membership test; anything
// else is refused, since the comb's negative digits and its handling of even
// exponents are only right in that group.
func NewUnitaryComb(g *Element, grp *UnitarySubgroup) (*UnitaryComb, error) {
	if g.f != grp.f || !grp.Contains(g) {
		return nil, errors.New("gf: comb base is not an element of the given subgroup")
	}
	f := g.f
	order := grp.order
	n := f.fp.Limbs()
	const w = combTeeth
	d := (order.BitLen() + w - 1) / w

	// teeth[t] = g^(2^(td)) along one chain of squarings; inv[t] its inverse.
	var teeth, inv [w]Element
	cur := g.Copy()
	for t := 0; t < w; t++ {
		teeth[t].Set(cur)
		inv[t].Conjugate(cur)
		if t < w-1 {
			for i := 0; i < d; i++ {
				cur.Square(cur)
			}
		}
	}
	// Row 0 is the top tooth over all the others; flipping the sign of tooth
	// t in a row already built multiplies by teeth[t]².
	rows := make([]uint64, (1<<(w-1))*2*n)
	row := func(i int) *Element { return &Element{f: f, a: rows[2*n*i : 2*n*i+n], b: rows[2*n*i+n : 2*n*(i+1)]} }
	r0 := row(0)
	r0.Set(&teeth[w-1])
	for t := 0; t < w-1; t++ {
		r0.Mul(r0, &inv[t])
		teeth[t].Square(&teeth[t])
	}
	for idx := 1; idx < 1<<(w-1); idx++ {
		t := 0
		for idx>>uint(t)&1 == 0 {
			t++
		}
		row(idx).Mul(row(idx&(idx-1)), &teeth[t])
	}
	return &UnitaryComb{f: f, order: order, spacing: d, rows: rows}, nil
}

// ExpSecret returns g^(k mod order) for a secret exponent k: the element
// Exp computes, by the same squarings, multiplications and row reads for
// every k in [0, order).
func (c *UnitaryComb) ExpSecret(k *big.Int) *Element {
	e := c.f.Zero()
	c.expSecret(e, k)
	return e
}

func (c *UnitaryComb) expSecret(e *Element, k *big.Int) (ops expOps) {
	if k.Sign() < 0 || k.BitLen() > c.order.BitLen() {
		k = new(big.Int).Mod(k, c.order)
	}
	F := c.f.fp
	n := F.Limbs()
	const w = combTeeth
	d := c.spacing
	signs, neg, zero := fp.SignedBits(k, c.order, w*d)

	var rb, sb, nb [2 * fp.MaxLimbs]uint64
	r, sel, nim := rb[:2*n], sb[:2*n], nb[:n]
	for j := d - 1; j >= 0; j-- {
		// Column j: a row, or for a negative digit its conjugate.
		idx, plus := fp.SignedDigit(signs, j, d, w)
		fp.Lookup(sel, c.rows, idx)
		F.Neg(nim, sel[n:])
		fp.Select(sel[n:], sel[n:], nim, plus)
		ops.EntriesRead += 1 << (w - 1)
		if j == d-1 {
			copy(r, sel)
			continue
		}
		F.SquareFp2(r[:n], r[n:], r[:n], r[n:])
		F.MulFp2(r[:n], r[n:], r[:n], r[n:], sel[:n], sel[n:])
		ops.Squares++
		ops.Muls++
	}
	// An even k ran as order − k: invert. k ≡ 0 ran as 1: answer the identity.
	F.Neg(nim, r[n:])
	fp.Select(r[n:], nim, r[n:], neg)
	fp.Select(r[:n], c.f.one, r[:n], zero)
	clear(nim)
	fp.Select(r[n:], nim, r[n:], zero)
	F.Set(e.a, r[:n])
	F.Set(e.b, r[n:])
	return ops
}

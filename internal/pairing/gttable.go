package pairing

import (
	"fmt"
	"math/big"

	"repro/internal/gf"
)

// GTTable is a fixed-base exponentiation table for a long-lived GT element,
// the multiplicative analogue of curve.Precomputed: a radix-2^w table
// storing g^(d·2^(wj)) for every window j and digit d ∈ [1, 2^w−1], so that
// an exponentiation is ⌈|q|/w⌉ table lookups and multiplications with no
// squarings. The BF KEM calls ê(P_pub, Q_ID)^r once per encryption with the
// same base for a given recipient — exactly the shape this table serves.
// Immutable and safe for concurrent use after construction.
type GTTable struct {
	q       *big.Int //cryptolint:public (the subgroup order)
	w       uint
	windows int
	table   [][]*gf.Element // table[j][d-1] = g^(d·2^(wj))
}

// gtWindow is the GT fixed-base radix; 4 matches curve.precompWindow and
// keeps the table at (2^4−1)·⌈|q|/4⌉ elements (600 for a 160-bit order).
const gtWindow = 4

// NewGTTable builds the fixed-base table for g. Building costs one pass of
// ~(2^w−1)·⌈|q|/w⌉ field multiplications; afterwards every Exp is ~⌈|q|/w⌉
// multiplications. The identity has no useful table; it is rejected so a
// degenerate pairing value cannot silently absorb every exponent.
func NewGTTable(g *GT) (*GTTable, error) {
	if g == nil || g.v.IsZero() || g.IsOne() {
		return nil, fmt.Errorf("pairing: cannot build a GT table for a degenerate base")
	}
	q := new(big.Int).Set(g.q)
	w := uint(gtWindow)
	windows := (q.BitLen() + gtWindow - 1) / gtWindow
	perWindow := 1<<w - 1

	table := make([][]*gf.Element, windows)
	// windowBase starts at g and becomes g^(2^(wj)) for each window.
	windowBase := g.v.Copy()
	for j := 0; j < windows; j++ {
		row := make([]*gf.Element, perWindow)
		// row[d-1] = windowBase^d by repeated multiplication.
		acc := windowBase.Copy()
		row[0] = acc.Copy()
		for d := 2; d <= perWindow; d++ {
			acc.Mul(acc, windowBase)
			row[d-1] = acc.Copy()
		}
		table[j] = row
		// Next window base: windowBase^(2^w) = row[2^w−2] · windowBase.
		windowBase.Mul(row[perWindow-1], windowBase)
	}
	return &GTTable{q: q, w: w, windows: windows, table: table}, nil
}

// TableSize returns the number of stored field elements (memory diagnostics).
func (gt *GTTable) TableSize() int { return gt.windows * (1<<gt.w - 1) }

// Exp returns base^k with k reduced modulo the group order (negative k
// allowed), the same GT element — bit for bit — that GT.Exp produces.
func (gt *GTTable) Exp(k *big.Int) *GT {
	kr := new(big.Int).Mod(k, gt.q)
	f := gt.table[0][0].Field()
	out := f.One()
	if kr.Sign() == 0 {
		return &GT{v: out, q: new(big.Int).Set(gt.q)}
	}
	mask := big.Word(1)<<gt.w - 1
	words := kr.Bits()
	const wordBits = 32 << (^big.Word(0) >> 63) // 32 or 64
	for j := 0; j < gt.windows; j++ {
		bit := uint(j) * gt.w
		wi := bit / wordBits
		if wi >= uint(len(words)) {
			break
		}
		d := words[wi] >> (bit % wordBits)
		if rem := wordBits - bit%wordBits; rem < gt.w && wi+1 < uint(len(words)) {
			d |= words[wi+1] << rem
		}
		d &= mask
		if d == 0 {
			continue
		}
		out.Mul(out, gt.table[j][d-1])
	}
	return &GT{v: out, q: new(big.Int).Set(gt.q)}
}

// GTSecretComb is the fixed-base form of GT.ExpSecret for a long-lived
// pairing value raised to a fresh secret exponent on every request (a key
// share's public constant under a proof nonce): gf.UnitaryComb over the group
// order — 32 rows, ≈ 4 KB at paper size, a quarter of ExpSecret's walk, the
// same operations for every exponent. GTTable stays what it is for exponents
// that may steer it. Immutable and safe for concurrent use.
type GTSecretComb struct {
	comb *gf.UnitaryComb
	q    *big.Int //cryptolint:public (the subgroup order)
}

// NewGTSecretComb builds the comb of g, which must be an element of GT — the
// order-q subgroup — as every pairing value is; anything else is refused.
func NewGTSecretComb(g *GT) (*GTSecretComb, error) {
	if g == nil {
		return nil, fmt.Errorf("pairing: nil base for a GT comb")
	}
	comb, err := gf.NewUnitaryComb(g.v, g.q)
	if err != nil {
		return nil, fmt.Errorf("pairing: GT comb: %w", err)
	}
	return &GTSecretComb{comb: comb, q: g.q}, nil
}

// ExpSecret returns g^k, bit-identical to g.Exp(k), for a secret exponent k.
func (c *GTSecretComb) ExpSecret(k *big.Int) *GT {
	return &GT{v: c.comb.ExpSecret(k), q: c.q}
}

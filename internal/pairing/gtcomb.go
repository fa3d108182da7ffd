package pairing

import (
	"fmt"
	"math/big"

	"repro/internal/gf"
)

// GTSecretComb is the fixed-base form of GT.ExpSecret for a long-lived
// pairing value raised to a fresh secret exponent on every request — a key
// share's public constant under a proof nonce, a BF recipient's ê(P_pub, Q_ID)
// under the sender's r: gf.UnitaryComb over the group order — 32 rows,
// ≈ 4 KB at paper size, a quarter of ExpSecret's walk, the same operations
// for every exponent. It is GT's one fixed-base kernel. Immutable and safe
// for concurrent use.
type GTSecretComb struct {
	comb *gf.UnitaryComb
	pp   *Params
}

// NewGTSecretComb builds the comb of g, which must be an element of GT — the
// order-q subgroup — as every pairing value is; anything else is refused, by
// the membership test InGT runs.
func NewGTSecretComb(g *GT) (*GTSecretComb, error) {
	if g == nil {
		return nil, fmt.Errorf("pairing: nil base for a GT comb")
	}
	comb, err := gf.NewUnitaryComb(g.v, g.pp.gt)
	if err != nil {
		return nil, fmt.Errorf("pairing: GT comb: %w", err)
	}
	return &GTSecretComb{comb: comb, pp: g.pp}, nil
}

// ExpSecret returns g^k, bit-identical to g.Exp(k), for a secret exponent k.
func (c *GTSecretComb) ExpSecret(k *big.Int) *GT {
	return &GT{v: c.comb.ExpSecret(k), pp: c.pp}
}

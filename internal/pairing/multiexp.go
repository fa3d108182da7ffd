package pairing

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/gf"
	"repro/internal/mathx"
)

// ErrNotUnitary is returned by MultiExp for a base outside the norm-1
// subgroup of F_p²*, which contains GT: such a value is no pairing output and
// cannot have passed InGT, and the kernel's squarings and inversions are only
// right on norm 1.
var ErrNotUnitary = errors.New("pairing: GT multi-exponentiation base is not unitary")

// gtNAFWidth is the signed window of MultiExp: per base the odd powers
// g, g³, g⁵, g⁷ (one squaring, three multiplications) against a
// multiplication at every fifth exponent bit. Width 5 doubles the table to
// save a sixth of those multiplications, which at the 128–160-bit exponents
// of the callers is a wash in time and twice the allocations.
const gtNAFWidth = 4

// MultiExp returns the product Π gs[i]^ks[i] with every exponent reduced
// modulo the group order (negative exponents allowed), the same GT element —
// bit for bit — as multiplying the GT.Exp results together; the empty
// product is the identity.
//
// It is the multiplicative twin of the curve's interleaved ladder: every
// exponent is recoded into width-4 non-adjacent form, and one walk down the
// digit positions squares a single shared accumulator and multiplies in the
// bases whose digit is nonzero there. GT's elements are unitary, so a
// negative digit's inverse is a conjugation, i.e. free. n exponentiations
// therefore cost one run of |q| squarings plus ~|q|/5 + 4 multiplications
// per base, where n calls to Exp pay |q| squarings and ~|q|/2
// multiplications each. The shared squaring is the general Square: one
// kernel call at paper size, ≈ 190 ns against ≈ 240 for SquareUnitary's two
// base-field squarings. Lagrange recombination in the exponent
// (core.CombineShares, RecoverShare) and the right-hand side of the batched
// share-proof check are the callers.
//
//cryptolint:vartime (the exponents' w-NAF digits steer the walk, as in GT.Exp; the callers' exponents are Lagrange coefficients and a verifier's batching weights, none of them a key)
func (pp *Params) MultiExp(gs []*GT, ks []*big.Int) (*GT, error) {
	if len(gs) != len(ks) {
		return nil, fmt.Errorf("pairing: MultiExp got %d bases and %d exponents", len(gs), len(ks))
	}
	type term struct {
		digits []int8                             // w-NAF of the reduced exponent, least significant first
		odd    [1 << (gtNAFWidth - 2)]*gf.Element // g, g³, g⁵, g⁷
	}
	q := pp.q
	terms := make([]term, 0, len(gs))
	steps := 0
	for i, g := range gs {
		if g == nil || ks[i] == nil {
			return nil, fmt.Errorf("pairing: MultiExp term %d is nil", i)
		}
		if !g.v.IsUnitary() {
			return nil, fmt.Errorf("%w (term %d)", ErrNotUnitary, i)
		}
		k := new(big.Int).Mod(ks[i], q)
		if k.Sign() == 0 {
			continue
		}
		t := term{digits: mathx.WNAF(k, gtNAFWidth)}
		t.odd[0] = g.v
		sq := new(gf.Element).SquareUnitary(g.v)
		for j := 1; j < len(t.odd); j++ {
			t.odd[j] = new(gf.Element).Mul(t.odd[j-1], sq)
		}
		terms = append(terms, t)
		steps = max(steps, len(t.digits))
	}

	out := pp.field.One()
	inv := new(gf.Element)
	for i := steps - 1; i >= 0; i-- {
		out.Square(out)
		for j := range terms {
			t := &terms[j]
			if i >= len(t.digits) {
				continue
			}
			switch d := t.digits[i]; {
			case d > 0:
				out.Mul(out, t.odd[d>>1])
			case d < 0:
				out.Mul(out, inv.Conjugate(t.odd[-d>>1]))
			}
		}
	}
	return &GT{v: out, pp: pp}, nil
}

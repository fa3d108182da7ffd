package pairing

import (
	"fmt"

	"repro/internal/curve"
)

// HashArg is a message hashed onto the curve and NOT cofactor-cleared: the
// raw try-and-increment point T of curve.HashToPointUncleared, with
// H(msg) = c·T for the cofactor c. It is opaque — no accessor gives the
// point back — because T is not a G1 element and must never be mistaken for
// H(msg): the only thing to do with it is hand it to a HashPairer, which
// accounts for the missing c on its own side. Immutable.
type HashArg struct {
	t *curve.Point
}

// HashArg hashes msg onto the curve under the domain-separation tag, leaving
// out the cofactor multiplication that makes up most of HashToPoint's cost.
func (pp *Params) HashArg(domain string, msg []byte) (*HashArg, error) {
	t, err := pp.curve.HashToPointUncleared(domain, msg)
	if err != nil {
		return nil, err
	}
	return &HashArg{t: t}, nil
}

// HashPairer evaluates ê(K, H(msg)) for a fixed K ∈ G1 from a HashArg, bit
// for bit the value Pair(K, HashToPoint(domain, msg)) — without clearing the
// hash's cofactor. With H(msg) = c·T and T = T_q + T_c split into its order-q
// and cofactor-order parts,
//
//	ê(K, c·T) = ê(K, T)^c = ê(c·K, T) = ê((c mod q)·K, T)
//
// by bilinearity and because K has order q; the second argument of the
// reduced pairing is cofactor-blind (DESIGN §7), so T_c contributes nothing
// on either side. The program recorded is therefore FixedPair((c mod q)·K):
// the clearing is paid once per key, as a |q|-bit ladder, and never per hash.
// That needs K in G1 — off G1 c·K and (c mod q)·K differ. A T of cofactor
// order (probability below 2⁻³⁵⁰ per hash) pairs to 1 exactly as
// HashToPoint's identity output does. Immutable and safe for concurrent use.
type HashPairer struct {
	fp *FixedPair
}

// NewHashPairer precomputes the program for ê(k, H(·)). k must be a
// non-identity point of G1; anything else is refused with
// curve.ErrNotInSubgroup.
func (pp *Params) NewHashPairer(k *curve.Point) (*HashPairer, error) {
	if k == nil {
		return nil, fmt.Errorf("pairing: nil fixed pairing argument")
	}
	scaled, err := pp.curve.MulCofactorG1(k)
	if err != nil {
		return nil, fmt.Errorf("pairing: fixed pairing argument: %w", err)
	}
	fp, err := pp.NewFixedPair(scaled)
	if err != nil {
		return nil, err
	}
	return &HashPairer{fp: fp}, nil
}

// Pair returns ê(K, H(msg)) for the hash h = HashArg(domain, msg).
func (hp *HashPairer) Pair(h *HashArg) (*GT, error) {
	return hp.fp.Pair(h.t)
}

// Miller is Pair stopped before the final exponentiation (Params.Finish).
func (hp *HashPairer) Miller(h *HashArg) Miller {
	return hp.fp.Miller(h.t)
}

package pairing

import (
	"repro/internal/parallel"
)

// BatchInGT reports, per element, whether each gᵢ lies in the order-q
// subgroup of F_p²* — the batched form of InGT for validating a batch of
// decryption tokens in one pass.
//
// Each element gets its own InGT — the norm check and the trace test chosen
// for q, the trace comparison on the paper set and the ladder over q on
// dense orders — fanned across cores with parallel.Fan; the wall-clock cost
// of a batch of k is ~⌈k/cores⌉ checks. An earlier version combined the batch
// into one exponentiation via a random linear combination t = ∏ gᵢ^{rᵢ},
// but that check is UNSOUND here: the cofactor c = (p²−1)/q is even, so
// F_p²* has small-order components outside the q-subgroup (e.g. −1, order
// 2), and gᵢ·ε with ord(ε) = m slips through whenever rᵢ ≡ 0 (mod m) —
// probability 1/m per attempt, retryable, nowhere near 2⁻⁶⁴. Random
// combinations only reach 2⁻λ soundness when the quotient group has no
// small-order subgroups, which this one structurally cannot satisfy, so
// the deterministic per-element check is the batch check.
//
// The returned slice has len(gs) entries; a nil or zero element reports
// false. The error return is kept for API stability and is always nil.
func (pp *Params) BatchInGT(gs []*GT) ([]bool, error) {
	ok := make([]bool, len(gs))
	parallel.Fan(len(gs), func(i int) {
		ok[i] = gs[i] != nil && pp.InGT(gs[i])
	})
	return ok, nil
}

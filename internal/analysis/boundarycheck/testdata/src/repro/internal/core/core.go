// Package core exercises the boundarycheck negative cases — raw decodes are
// fine outside network-facing packages (local key material, test vectors) —
// and the reads of a stored evaluation point: core is where the verifier
// that holds one lives, so the marked field is policed here too.
package core

import (
	"math/big"

	"repro/internal/curve"
	"repro/internal/pairing"
)

// LoadScalar decodes locally stored key material.
func LoadScalar(data []byte) *big.Int {
	return new(big.Int).SetBytes(data)
}

// IBESEM is the mediator's IBE half.
type IBESEM struct{}

// Token returns ê(d_sem, u): u is only the pairing's evaluation point.
func (s *IBESEM) Token(id string, u *curve.Point) (*pairing.GT, error) { return &pairing.GT{}, nil }

// DecryptionShare is a threshold player's answer.
type DecryptionShare struct{}

// ThresholdPlayer is one threshold decryption server.
type ThresholdPlayer struct{}

// Share returns ê(d_IDi, u) and its proof: u is only the pairing's
// evaluation point.
func (p *ThresholdPlayer) Share(id string, u *curve.Point) (*DecryptionShare, error) {
	return &DecryptionShare{}, nil
}

// ShareProof is a proof as the verifier holds it.
type ShareProof struct {
	E int
	// V arrives on the curve, not subgroup-checked.
	V *curve.Point //cryptolint:evalpoint (summed into one pairing's second argument)
	// W is an ordinary G1 point.
	W *curve.Point
}

// VerifyProofs is the allowed flow: the stored points are nil-checked, summed
// by MSM, and the sum is a pairing's second argument.
func VerifyProofs(pp *pairing.Params, x *curve.Point, proofs []*ShareProof) (*pairing.GT, error) {
	as := make([]int, len(proofs))
	vs := make([]*curve.Point, len(proofs))
	for i, pr := range proofs {
		if pr.V == nil || pr.V.IsInfinity() {
			return nil, nil
		}
		as[i], vs[i] = i+1, pr.V
	}
	if len(vs) == 0 {
		return nil, nil
	}
	v, err := pp.Curve().MSM(as, vs)
	if err != nil {
		return nil, err
	}
	return pp.Pair(x, v)
}

// EchoSum sums the stored points and marshals the sum back out.
func EchoSum(c *curve.Curve, proofs []*ShareProof) []byte {
	as := make([]int, len(proofs))
	vs := make([]*curve.Point, len(proofs))
	for i, pr := range proofs {
		as[i], vs[i] = 1, pr.V
	}
	v, err := c.MSM(as, vs)
	if err != nil {
		return nil
	}
	return v.Marshal() // want `sum of evaluation points is the receiver of Marshal`
}

// LeakSum lets the slice, an element and an unbound sum out.
func LeakSum(c *curve.Curve, pr *ShareProof) ([]*curve.Point, *curve.Point, error) {
	vs := make([]*curve.Point, 1)
	vs[0] = pr.V
	first := vs[0]                                 // want `slice of evaluation points has an element read`
	if _, err := c.MSM([]int{1}, vs); err != nil { // want `a Curve.MSM sum of evaluation points must be bound to a local variable` `slice of evaluation points is passed to a function other than Curve.MSM`
		return nil, nil, err
	}
	return vs, first, nil // want `slice of evaluation points escapes`
}

// Misuse reads the stored point in every way the rule forbids.
func Misuse(pp *pairing.Params, key *curve.Point, pr, other *ShareProof) (*pairing.GT, error) {
	_ = pr.V.ScalarMul(pr.E)  // want `stored evaluation point V is the receiver of ScalarMul`
	_ = key.Add(pr.V)         // want `stored evaluation point V is argument 0 of Point.Add`
	_ = key.Equal(pr.V)       // want `stored evaluation point V is argument 0 of Point.Equal`
	_ = pr.V.Marshal()        // want `stored evaluation point V is the receiver of Marshal`
	other.W = pr.V            // want `stored evaluation point V escapes`
	other.V = pr.V            // marked field to marked field: still an evaluation point
	_ = pr.V.Marshal()        //cryptolint:evalpoint (the prover's own V, computed a line above)
	_ = pr.W.Marshal()        // an unmarked field is nobody's business
	return pp.Pair(pr.V, key) // want `stored evaluation point V is argument 0 of Params.Pair`
}

// Package core exercises the boundarycheck negative cases: raw decodes are
// fine outside network-facing packages (local key material, test vectors).
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

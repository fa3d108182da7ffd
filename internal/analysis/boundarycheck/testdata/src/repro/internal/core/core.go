// Package core exercises the boundarycheck negative case: raw decodes are
// fine outside network-facing packages (local key material, test vectors).
package core

import "math/big"

// LoadScalar decodes locally stored key material.
func LoadScalar(data []byte) *big.Int {
	return new(big.Int).SetBytes(data)
}

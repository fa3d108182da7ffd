// Package wire stubs the sanctioned validated decoders. Raw decodes inside
// this package are exempt — it is where validation lives.
package wire

import (
	"math/big"

	"repro/internal/curve"
	"repro/internal/pairing"
)

// UnmarshalG1 decodes and subgroup-checks a curve point.
func UnmarshalG1(c *curve.Curve, data []byte) (*curve.Point, error) {
	return c.Unmarshal(data)
}

// UnmarshalScalar decodes and range-checks a scalar.
func UnmarshalScalar(data []byte, max *big.Int) (*big.Int, error) {
	return new(big.Int).SetBytes(data), nil
}

// UnmarshalGT decodes and membership-checks a GT element.
func UnmarshalGT(pp *pairing.Params, data []byte) (*pairing.GT, error) {
	return pp.GTFromBytes(data)
}

// UnmarshalPairingX decodes an x-only evaluation point.
func UnmarshalPairingX(c *curve.Curve, data []byte) (curve.EvalX, error) {
	return c.UnmarshalX(data)
}

// UnmarshalGTX decodes, resolves and membership-checks an x-only token.
func UnmarshalGTX(pp *pairing.Params, data []byte, u *curve.Point) (*pairing.GT, error) {
	return pp.ResolveX(data, u)
}

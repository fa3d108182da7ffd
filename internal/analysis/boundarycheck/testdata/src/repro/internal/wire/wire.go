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

// UnmarshalPairingArg decodes a point that is on the curve and not the
// identity, without the subgroup check: a pairing evaluation point only.
func UnmarshalPairingArg(c *curve.Curve, data []byte) (*curve.Point, error) {
	return c.Unmarshal(data)
}

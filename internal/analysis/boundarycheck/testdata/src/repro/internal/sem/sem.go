// Package sem exercises the boundarycheck positive cases: raw decodes of
// peer-supplied bytes in a network-facing package.
package sem

import (
	"math/big"

	"repro/internal/curve"
	"repro/internal/gf"
	"repro/internal/pairing"
)

// HandlePoint decodes a peer point without validation.
func HandlePoint(c *curve.Curve, payload []byte) (*curve.Point, error) {
	return c.Unmarshal(payload) // want `raw curve.Unmarshal decode at a network boundary; use wire.UnmarshalG1`
}

// HandleToken decodes a peer GT element without a membership check.
func HandleToken(pp *pairing.Params, payload []byte) (*pairing.GT, error) {
	return pp.GTFromBytes(payload) // want `raw pairing.GTFromBytes decode at a network boundary; use wire.UnmarshalGT`
}

// HandleElement decodes field coordinates without validation.
func HandleElement(f *gf.Field, payload []byte) (*gf.Element, error) {
	return f.ElementFromBytes(payload) // want `raw gf.ElementFromBytes decode at a network boundary; use wire.UnmarshalGT`
}

// HandleScalar decodes a scalar without a range check.
func HandleScalar(payload []byte) *big.Int {
	return new(big.Int).SetBytes(payload) // want `raw big.SetBytes decode at a network boundary; use wire.UnmarshalScalar`
}

// HandleAbscissa decodes a peer abscissa outside wire.
func HandleAbscissa(c *curve.Curve, payload []byte) (curve.EvalX, error) {
	return c.UnmarshalX(payload) // want `raw curve.UnmarshalX decode at a network boundary; use wire.UnmarshalPairingX`
}

// HandleTokenX decodes an x-only token without a membership check.
func HandleTokenX(pp *pairing.Params, payload []byte, u *curve.Point) (*pairing.GT, error) {
	return pp.ResolveX(payload, u) // want `raw pairing.ResolveX decode at a network boundary; use wire.UnmarshalGTX`
}

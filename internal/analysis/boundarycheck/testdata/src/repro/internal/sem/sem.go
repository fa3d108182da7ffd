// Package sem exercises the boundarycheck positive cases: raw decodes of
// peer-supplied bytes in a network-facing package.
package sem

import (
	"math/big"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/gf"
	"repro/internal/pairing"
	"repro/internal/wire"
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

// HandleIBEToken is the allowed flow: the unchecked point is bound to a
// local, tested for nil/identity, and reaches only IBESEM.Token and second
// pairing arguments.
func HandleIBEToken(s *core.IBESEM, pp *pairing.Params, fp *pairing.FixedPair, key *curve.Point, id string, payload []byte) (*pairing.GT, error) {
	u, err := wire.UnmarshalPairingArg(pp.Curve(), payload)
	if err != nil {
		return nil, err
	}
	if u == nil || u.IsInfinity() {
		return nil, nil
	}
	if _, err := pp.Pair(key, u); err != nil {
		return nil, err
	}
	if _, err := fp.Pair(u); err != nil {
		return nil, err
	}
	return s.Token(id, u)
}

// HandleThresholdShare is the other allowed flow: the unchecked point
// reaches only ThresholdPlayer.Share.
func HandleThresholdShare(p *core.ThresholdPlayer, c *curve.Curve, id string, payload []byte) (*core.DecryptionShare, error) {
	u, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil, err
	}
	return p.Share(id, u)
}

// HandleHalfSign multiplies the unchecked point by a secret.
func HandleHalfSign(c *curve.Curve, x int, payload []byte) []byte {
	h, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil
	}
	half := h.ScalarMul(x) // want `point from wire.UnmarshalPairingArg is the receiver of ScalarMul`
	return half.Marshal()
}

// HandleAccumulate adds the unchecked point to a key and echoes it back.
func HandleAccumulate(c *curve.Curve, acc *curve.Point, payload []byte) ([]byte, *curve.Point) {
	u, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil, nil
	}
	sum := acc.Add(u)       // want `point from wire.UnmarshalPairingArg is argument 0 of Point.Add`
	return u.Marshal(), sum // want `point from wire.UnmarshalPairingArg is the receiver of Marshal`
}

// HandleWalked walks the unchecked point as the first pairing argument.
func HandleWalked(pp *pairing.Params, key *curve.Point, payload []byte) (*pairing.GT, error) {
	u, err := wire.UnmarshalPairingArg(pp.Curve(), payload)
	if err != nil {
		return nil, err
	}
	return pp.Pair(u, key) // want `point from wire.UnmarshalPairingArg is argument 0 of Params.Pair`
}

// HandleRegister stores the unchecked point and lets it escape.
func HandleRegister(c *curve.Curve, store map[string]*curve.Point, id string, payload []byte) *curve.Point {
	d, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil
	}
	store[id] = d // want `point from wire.UnmarshalPairingArg escapes`
	return d      // want `point from wire.UnmarshalPairingArg escapes`
}

// HandleUnbound returns the decoder's result without binding it.
func HandleUnbound(c *curve.Curve, payload []byte) (*curve.Point, error) {
	return wire.UnmarshalPairingArg(c, payload) // want `wire.UnmarshalPairingArg result must be bound to a local variable`
}

// HandleShareProof is the allowed flow for a stored evaluation point: the
// marked field takes the unchecked point in a literal or an assignment, and
// a subgroup-checked point anywhere.
func HandleShareProof(c *curve.Curve, payload []byte) (*core.ShareProof, *core.ShareProof, error) {
	v, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil, nil, err
	}
	checked, err := wire.UnmarshalG1(c, payload)
	if err != nil {
		return nil, nil, err
	}
	lit := &core.ShareProof{E: 1, V: v}
	set := &core.ShareProof{V: checked, W: checked}
	set.V = v
	return lit, set, nil
}

// HandleShareProofWrongField stores the unchecked point in fields that do
// not say they hold one.
func HandleShareProofWrongField(c *curve.Curve, payload []byte) *core.ShareProof {
	v, err := wire.UnmarshalPairingArg(c, payload)
	if err != nil {
		return nil
	}
	pr := &core.ShareProof{W: v} // want `point from wire.UnmarshalPairingArg escapes`
	pr.W = v                     // want `point from wire.UnmarshalPairingArg escapes`
	return pr
}

// EchoShareProof marshals a stored evaluation point back out: a finding in a
// network-facing package as in core, unless the line says why.
func EchoShareProof(pr *core.ShareProof) ([]byte, []byte) {
	own := pr.V.Marshal()      //cryptolint:evalpoint (this side computed V itself)
	return own, pr.V.Marshal() // want `stored evaluation point V is the receiver of Marshal`
}

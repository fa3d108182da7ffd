// Package wire provides the framing shared by the repository's network
// services (the SEM daemon, and the threshold-IBE players that are SEM
// daemons with a share backend): the binary batched framing of framev2.go,
// capped at MaxFrame by default or at a limit negotiated per connection.
// The package also carries the untrusted-input decoders (points, scalars,
// GT elements) every network boundary must use, plus a packed encoding for
// vectors of big integers.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/curve"
	"repro/internal/pairing"
)

// MaxFrame bounds a single protocol frame when the caller does not
// negotiate a per-connection limit of its own.
const MaxFrame = 1 << 20

var (
	// ErrFrameTooLarge is returned when a peer announces or requests a
	// frame beyond the applicable limit.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

	// ErrProtocol is returned on malformed frames.
	ErrProtocol = errors.New("wire: protocol error")
)

// UnmarshalG1 decodes a compressed curve point received from an untrusted
// peer and checks order-q subgroup membership. curve.Unmarshal alone only
// verifies the point is on the curve — the curve has cofactor c > 1, so a
// malicious peer can otherwise smuggle in low-order components that leak
// information through protocol responses (small-subgroup attacks). Every
// network boundary (SEM daemon, cluster nodes) must decode through this;
// the one exception, with its own narrower contract, is UnmarshalPairingArg.
func UnmarshalG1(c *curve.Curve, data []byte) (*curve.Point, error) {
	pt, err := c.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if err := pt.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return pt, nil
}

// UnmarshalPairingArg decodes a compressed curve point received from an
// untrusted peer for one use only: as the evaluation point — the second,
// non-walked argument — of a pairing whose first argument is the caller's
// own order-q key. It checks what that use needs and no more: the encoding
// is canonical, the point is on the curve, and it is not the identity. It
// does NOT check order-q subgroup membership, the [q]· ladder that dominates
// UnmarshalG1: the reduced pairing's second argument lives in E/qE, so a
// cofactor component buys the peer nothing (DESIGN §7). The result is a
// curve.EvalPoint, which only a pairing's second argument, IBESEM.Token
// and Curve.EvalSum accept; any other use of the point needs UnmarshalG1.
// It still takes the square root for y; a pairing that will be answered to
// the holder of y needs only UnmarshalPairingX. It is UnmarshalPairingArgs
// for one encoding.
func UnmarshalPairingArg(c *curve.Curve, data []byte) (curve.EvalPoint, error) {
	var vs [1]curve.EvalPoint
	var errs [1]error
	UnmarshalPairingArgs(c, vs[:], errs[:], data)
	return vs[0], errs[0]
}

// UnmarshalPairingArgs decodes each data[i] as UnmarshalPairingArg does into
// vs[i], with that verdict in errs[i], and takes the square roots of all of
// them together (curve.Curve.UnmarshalEach): a recombiner's round of proof
// points V costs one walk of (p+1)/4 on the lane engine. No verdict reads
// another encoding.
func UnmarshalPairingArgs(c *curve.Curve, vs []curve.EvalPoint, errs []error, data ...[]byte) {
	var pb [8]*curve.Point
	pts := pb[:]
	if len(data) > len(pb) {
		pts = make([]*curve.Point, len(data))
	}
	c.UnmarshalEach(pts, errs, data...)
	for i, pt := range pts[:len(data)] {
		vs[i] = curve.EvalPoint{}
		switch {
		case errs[i] != nil:
			errs[i] = fmt.Errorf("%w: %v", ErrProtocol, errs[i])
		case pt.IsInfinity():
			errs[i] = fmt.Errorf("%w: point at infinity", ErrProtocol)
		default:
			vs[i] = curve.EvalPointOf(pt)
		}
	}
}

// UnmarshalPairingX decodes a compressed curve point received from an
// untrusted peer as an x-only evaluation point (curve.EvalX): what
// UnmarshalPairingArg accepts less the 2-torsion point x = 0, without its
// square root — a Legendre symbol checks that x is an abscissa. The sign
// tag is accepted either way and read as neither: the x-only pairing's
// answer is resolved by the peer's own y (DESIGN §7). Refused, as
// ErrProtocol: a wrong length, tag 0 and unknown tags, x ≥ p, x = 0, and an
// x³ + x that is not a square.
func UnmarshalPairingX(c *curve.Curve, data []byte) (curve.EvalX, error) {
	e, err := c.UnmarshalX(data)
	if err != nil {
		return curve.EvalX{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return e, nil
}

// UnmarshalGTX decodes an x-only pairing value X‖Y received from an
// untrusted peer that paired against u's abscissa (UnmarshalPairingX on its
// side), resolves it with u's y to X + (Y·y_u)·i, and checks the result's
// order-q membership as UnmarshalGT does.
func UnmarshalGTX(pp *pairing.Params, data []byte, u curve.EvalArg) (*pairing.GT, error) {
	g, err := pp.ResolveX(data, u)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if !pp.InGT(g) {
		return nil, fmt.Errorf("%w: element outside the order-q subgroup of GT", ErrProtocol)
	}
	return g, nil
}

// UnmarshalScalar decodes a big-endian scalar received from an untrusted
// peer and range-checks it against max: the result lies in [0, max). A raw
// big.Int.SetBytes accepts arbitrarily large values, which downstream code
// would silently reduce (or worse, use unreduced in comparisons and
// branchings), so every peer-supplied exponent, challenge or RSA residue
// must decode through this with the appropriate modulus.
func UnmarshalScalar(data []byte, max *big.Int) (*big.Int, error) {
	if max == nil || max.Sign() <= 0 {
		return nil, fmt.Errorf("%w: scalar bound must be positive", ErrProtocol)
	}
	// Oversized buffers are rejected before decoding: a minimal or
	// fixed-width encoding of any value below max never exceeds the bound's
	// own width, and this caps the bigint allocation at the modulus size.
	if maxLen := (max.BitLen() + 7) / 8; len(data) > maxLen {
		return nil, fmt.Errorf("%w: scalar encoding %d bytes exceeds bound width %d", ErrProtocol, len(data), maxLen)
	}
	x := new(big.Int).SetBytes(data) //cryptolint:public (sanctioned wire decode edge; the encoding length is attacker-visible on the wire by definition)
	if x.Cmp(max) >= 0 {             //cryptolint:public (range-validity check against the public bound at the wire edge)
		return nil, fmt.Errorf("%w: scalar out of range (%d bits, bound %d bits)", ErrProtocol, x.BitLen(), max.BitLen())
	}
	return x, nil
}

// UnmarshalGT decodes a GT element received from an untrusted peer and
// checks order-q subgroup membership. GTFromBytes alone only verifies the
// coordinates are canonical field elements — the multiplicative group of
// F_p² has order p²−1 = c·q with a large cofactor, so an unchecked element
// lets a malicious SEM or cluster node smuggle low-order components into
// decryption tokens (the GT analogue of the small-subgroup attacks that
// UnmarshalG1 blocks on the curve side).
func UnmarshalGT(pp *pairing.Params, data []byte) (*pairing.GT, error) {
	g, err := pp.GTFromBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if !pp.InGT(g) {
		return nil, fmt.Errorf("%w: element outside the order-q subgroup of GT", ErrProtocol)
	}
	return g, nil
}

// UnmarshalGTEach decodes GT elements received together from an untrusted
// peer — a threshold share's G, W1 and W2 — into gs: data[i] as UnmarshalGT
// decodes it where us is nil or us[i] is, and otherwise as UnmarshalGTX
// does with us[i] (an x-only value resolved by that point's y). The order-q
// checks of the elements before the first undecodable one run together
// (pairing.Params.InGTEach: each element's own verdict, their ladders
// sharing calls). The error is the one UnmarshalGT gives for the first
// element, in order, that it refuses.
func UnmarshalGTEach(pp *pairing.Params, gs []*pairing.GT, us []curve.EvalArg, data ...[]byte) error {
	bad := len(data) // the first element that does not decode
	var derr error
	for i, raw := range data {
		var u curve.EvalArg
		if us != nil {
			u = us[i]
		}
		if gs[i], derr = pp.ResolveX(raw, u); derr != nil {
			bad = i
			break
		}
	}
	var ok [4]bool
	for i := 0; i < bad; i += len(ok) {
		c := min(bad-i, len(ok))
		pp.InGTEach(gs[i:i+c], ok[:c])
		for _, in := range ok[:c] {
			if !in {
				return fmt.Errorf("%w: element outside the order-q subgroup of GT", ErrProtocol)
			}
		}
	}
	if derr != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, derr)
	}
	return nil
}

// PackInts serializes a vector of non-negative integers as 2-byte-length-
// prefixed big-endian chunks.
func PackInts(xs []*big.Int) ([]byte, error) {
	var buf bytes.Buffer
	for _, x := range xs {
		b := x.Bytes() //cryptolint:public (sanctioned wire serialization edge)
		if len(b) > 0xFFFF {
			return nil, fmt.Errorf("wire: element too large (%d bytes)", len(b))
		}
		var hdr [2]byte
		binary.BigEndian.PutUint16(hdr[:], uint16(len(b)))
		buf.Write(hdr[:])
		buf.Write(b)
	}
	return buf.Bytes(), nil
}

// UnpackInts inverts PackInts.
func UnpackInts(data []byte) ([]*big.Int, error) {
	var out []*big.Int
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, fmt.Errorf("%w: truncated element header", ErrProtocol)
		}
		n := int(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
		if len(data) < n {
			return nil, fmt.Errorf("%w: truncated element body", ErrProtocol)
		}
		out = append(out, new(big.Int).SetBytes(data[:n]))
		data = data[n:]
	}
	return out, nil
}

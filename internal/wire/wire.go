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
// does NOT check order-q subgroup membership, which is the 160-bit [q]·
// ladder that dominates UnmarshalG1.
//
// Why that is enough there and nowhere else: the reduced Tate pairing's
// second argument lives in E/qE, so for d ∈ E(F_p)[q] and U = U_q + T with
// ord(T) | (p+1)/q, ê(d, U) = ê(d, U_q) bit for bit — a cofactor component
// buys the peer the token an honest query for U_q gets, always in GT, and
// nothing else (DESIGN §7). A point that is multiplied by a secret, added
// to, marshalled back out, or walked as a pairing's FIRST argument has no
// such quotient to hide in and must come through UnmarshalG1; the
// boundarycheck analyzer enforces that a value returned from here reaches
// only core.IBESEM.Token, core.ThresholdPlayer.Share (the same pairing for a
// threshold player's key share, plus a proof made of its powers), a
// pairing's second argument, or a struct field marked
// //cryptolint:evalpoint — core.ShareProof.V, a share proof's response as
// the recombiner holds it — every read of which is held to the same uses
// plus the one that V needs: being summed by curve.Curve.MSM (exact on all
// of E(F_p)) into a point that is in turn only a pairing's second argument.
func UnmarshalPairingArg(c *curve.Curve, data []byte) (*curve.Point, error) {
	pt, err := c.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if pt.IsInfinity() {
		return nil, fmt.Errorf("%w: point at infinity", ErrProtocol)
	}
	return pt, nil
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

// UnmarshalGTBatch decodes k GT elements received from an untrusted peer
// and checks order-q subgroup membership of the whole batch with
// pairing.BatchInGT, which fans the per-element InGT checks across cores —
// the validated decoder behind the batch token path. Each element
// is checked deterministically (random-linear-combination batching is
// unsound in GT: the cofactor has small-order subgroups, see BatchInGT).
// A nil raws[i] yields a nil element with a nil error (the
// caller already failed that slot upstream); a malformed or out-of-subgroup
// element sets errs[i] and leaves gs[i] nil. The error return is non-nil
// only for batch-level failures such as randomness exhaustion.
func UnmarshalGTBatch(pp *pairing.Params, raws [][]byte) (gs []*pairing.GT, errs []error, err error) {
	gs = make([]*pairing.GT, len(raws))
	errs = make([]error, len(raws))
	for i, raw := range raws {
		if raw == nil {
			continue
		}
		g, gerr := pp.GTFromBytes(raw)
		if gerr != nil {
			errs[i] = fmt.Errorf("%w: %v", ErrProtocol, gerr)
			continue
		}
		gs[i] = g
	}
	ok, berr := pp.BatchInGT(gs)
	if berr != nil {
		return nil, nil, fmt.Errorf("batch GT validation: %w", berr)
	}
	for i := range gs {
		if gs[i] != nil && !ok[i] {
			gs[i] = nil
			errs[i] = fmt.Errorf("%w: element outside the order-q subgroup of GT", ErrProtocol)
		}
	}
	return gs, errs, nil
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

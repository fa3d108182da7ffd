// Package bls implements the GDH short signature of Boneh, Lynn and Shacham
// and its Boldyreva threshold adaptation — the two building blocks of the
// paper's mediated GDH signature (Section 5).
//
// The scheme works in any Gap-Diffie-Hellman group; here G1 is the order-q
// subgroup of the supersingular curve and the DDH oracle is the pairing:
// (P, R, h(M), S) is a valid Diffie-Hellman tuple iff ê(P, S) = ê(R, h(M)).
//
// Signatures are single compressed G1 points — the "160 bit signature" the
// paper highlights when comparing SEM→user traffic with 1024-bit mRSA.
package bls

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/curve"
	"repro/internal/mathx"
	"repro/internal/pairing"
	"repro/internal/parallel"
	"repro/internal/shamir"
)

const domainH = "GDH-SIG-H"

var (
	// ErrInvalidSignature is returned when verification fails.
	ErrInvalidSignature = errors.New("bls: invalid signature")

	// ErrInvalidShare is returned when a partial signature fails its
	// share-verification pairing check.
	ErrInvalidShare = errors.New("bls: invalid signature share")
)

// PublicKey is R = x·P.
type PublicKey struct {
	Pairing *pairing.Params
	R       *curve.Point
}

// PrivateKey holds the signing scalar x.
//
//cryptolint:secret
type PrivateKey struct {
	Public *PublicKey //cryptolint:public (the public key)
	X      *big.Int
}

// GenerateKey samples a fresh GDH key pair.
func GenerateKey(rng io.Reader, pp *pairing.Params) (*PrivateKey, error) {
	x, err := mathx.RandomFieldElement(rng, pp.Q())
	if err != nil {
		return nil, fmt.Errorf("sample signing key: %w", err)
	}
	return KeyFromScalar(pp, x)
}

// KeyFromScalar builds a key pair from an explicit scalar (used by the
// mediated scheme's trusted dealer, which must know both halves' sum).
//
//cryptolint:vartime (offline dealing at the TA; the one-time reduction mod q is not an online path)
func KeyFromScalar(pp *pairing.Params, x *big.Int) (*PrivateKey, error) {
	xm := new(big.Int).Mod(x, pp.Q())
	if xm.Sign() == 0 {
		return nil, fmt.Errorf("bls: signing key must be nonzero mod q")
	}
	return &PrivateKey{
		Public: &PublicKey{Pairing: pp, R: pp.GeneratorMul(xm)},
		X:      xm,
	}, nil
}

// HashMessage is the h(·) oracle mapping messages into G1.
func HashMessage(pp *pairing.Params, msg []byte) (*curve.Point, error) {
	pt, err := pp.Curve().HashToPoint(domainH, msg)
	if err != nil {
		return nil, fmt.Errorf("hash message: %w", err)
	}
	return pt, nil
}

// Sign produces S = x·h(M).
func (k *PrivateKey) Sign(msg []byte) (*curve.Point, error) {
	h, err := HashMessage(k.Public.Pairing, msg)
	if err != nil {
		return nil, err
	}
	return h.ScalarMulSecret(k.X)
}

// Verify checks that (P, R, h(M), S) is a Diffie-Hellman tuple:
// ê(P, S) = ê(R, h(M)), evaluated as the single product
// ê(P, S)·ê(−R, h(M)) = 1 so one shared Miller loop and one final
// exponentiation replace two full pairings.
func (pk *PublicKey) Verify(msg []byte, sig *curve.Point) error {
	if sig == nil || sig.IsInfinity() {
		return ErrInvalidSignature
	}
	if !sig.InSubgroup() {
		return fmt.Errorf("%w: signature outside G1", ErrInvalidSignature)
	}
	h, err := HashMessage(pk.Pairing, msg)
	if err != nil {
		return err
	}
	prod, err := pk.Pairing.MultiPair(
		[]*curve.Point{pk.Pairing.Generator(), pk.R.Neg()},
		[]*curve.Point{sig, h},
	)
	if err != nil {
		return err
	}
	if !prod.IsOne() {
		return ErrInvalidSignature
	}
	return nil
}

// BatchVerify checks n signatures under this key with a single pairing
// product: it samples random 64-bit coefficients r_i and tests
//
//	ê(P, Σ r_i·S_i) · ê(−R, Σ r_i·h(M_i)) = 1,
//
// which holds for honest batches by bilinearity and fails except with
// probability 2⁻⁶⁴ per forged member (a forgery must land in the kernel of
// a random linear form). The cost is n raw hash-to-curve maps and 2n small
// scalar multiplications instead of n independent product checks — the
// random-linear-combination batching of Bellare-Garay-Rabin applied to GDH
// tuples. Two amortizations beyond the shared Miller loop: the per-message
// cofactor clearing of h(M_i) = c·T_i is merged into one multiplication at
// the end (Σ r_i·(c·T_i) = c·Σ r_i·T_i), and the r_i are only 64 bits, so
// the per-member scalar multiplications are far cheaper than full-width
// ones. An error identifies a malformed input; ErrInvalidSignature means at
// least one member of the batch is invalid (callers fall back to
// per-signature Verify to locate it).
func (pk *PublicKey) BatchVerify(rng io.Reader, msgs [][]byte, sigs []*curve.Point) error {
	if len(msgs) != len(sigs) {
		return fmt.Errorf("bls: batch has %d messages and %d signatures", len(msgs), len(sigs))
	}
	if len(msgs) == 0 {
		return fmt.Errorf("bls: empty batch")
	}
	cv := pk.Pairing.Curve()

	// Coefficients are drawn up front (rng readers need not be concurrency
	// safe), then member validation and hashing fan out across workers —
	// each index writes only its own slots, and the first error by index
	// wins so the reported member is schedule-independent.
	rs := make([]*big.Int, len(msgs))
	var buf [8]byte
	for i := range rs {
		if _, err := io.ReadFull(rng, buf[:]); err != nil {
			return fmt.Errorf("bls: sample batch coefficient: %w", err)
		}
		r := new(big.Int).SetBytes(buf[:])
		r.Add(r, big.NewInt(1)) // r_i ∈ [1, 2⁶⁴]: a zero coefficient would ignore the member
		rs[i] = r
	}
	tis := make([]*curve.Point, len(msgs)) // raw (uncleared) hash points T_i
	memberErrs := make([]error, len(msgs))
	parallel.Fan(len(msgs), func(i int) {
		sig := sigs[i]
		if sig == nil || sig.IsInfinity() {
			memberErrs[i] = fmt.Errorf("%w: batch member %d", ErrInvalidSignature, i)
			return
		}
		if !sig.InSubgroup() {
			memberErrs[i] = fmt.Errorf("%w: batch member %d outside G1", ErrInvalidSignature, i)
			return
		}
		ti, err := cv.HashToPointUncleared(domainH, msgs[i])
		if err != nil {
			memberErrs[i] = fmt.Errorf("hash message: %w", err)
			return
		}
		tis[i] = ti
	})
	for _, err := range memberErrs {
		if err != nil {
			return err
		}
	}

	// The two aggregations Σ r_i·S_i and Σ r_i·T_i are Pippenger multi-scalar
	// sums; cofactor clearing stays merged into one multiplication at the end.
	sAcc, err := cv.MSM(rs, sigs)
	if err != nil {
		return err
	}
	tAcc, err := cv.MSM(rs, tis)
	if err != nil {
		return err
	}
	hAcc := tAcc.ScalarMul(cv.Cofactor())
	prod, err := pk.Pairing.MultiPair(
		[]*curve.Point{pk.Pairing.Generator(), pk.R.Neg()},
		[]*curve.Point{sAcc, hAcc},
	)
	if err != nil {
		return err
	}
	if !prod.IsOne() {
		return ErrInvalidSignature
	}
	return nil
}

// ThresholdDealer is the trusted authority of the Boldyreva scheme: it
// shares the signing key x among n players with threshold t and publishes
// per-player verification keys R_i = x_i·P.
type ThresholdDealer struct {
	group  *PublicKey
	t, n   int
	shares []shamir.Share
	vks    []*curve.Point
}

// NewThresholdDealer shares a fresh signing key (t, n) ways.
func NewThresholdDealer(rng io.Reader, pp *pairing.Params, t, n int) (*ThresholdDealer, error) {
	if t < 1 || n < t {
		return nil, fmt.Errorf("bls: invalid threshold (t=%d, n=%d)", t, n)
	}
	key, err := GenerateKey(rng, pp)
	if err != nil {
		return nil, err
	}
	poly, err := shamir.NewPolynomial(rng, key.X, pp.Q(), t)
	if err != nil {
		return nil, fmt.Errorf("share signing key: %w", err)
	}
	shares, err := poly.IssueShares(n)
	if err != nil {
		return nil, err
	}
	vks := make([]*curve.Point, n)
	for i, s := range shares {
		vks[i] = pp.GeneratorMul(s.Value)
	}
	return &ThresholdDealer{group: key.Public, t: t, n: n, shares: shares, vks: vks}, nil
}

// GroupKey returns the group public key R = x·P signatures verify against.
func (d *ThresholdDealer) GroupKey() *PublicKey { return d.group }

// Threshold returns t.
func (d *ThresholdDealer) Threshold() int { return d.t }

// Players returns n.
func (d *ThresholdDealer) Players() int { return d.n }

// PlayerShare returns player i's (1-based) secret share x_i.
func (d *ThresholdDealer) PlayerShare(i int) (shamir.Share, error) {
	if i < 1 || i > d.n {
		return shamir.Share{}, fmt.Errorf("bls: player index %d out of range 1..%d", i, d.n)
	}
	return shamir.Share{Index: i, Value: new(big.Int).Set(d.shares[i-1].Value)}, nil
}

// VerificationKey returns the public key R_i = x_i·P of player i.
func (d *ThresholdDealer) VerificationKey(i int) (*curve.Point, error) {
	if i < 1 || i > d.n {
		return nil, fmt.Errorf("bls: player index %d out of range 1..%d", i, d.n)
	}
	return d.vks[i-1], nil
}

// SignShare produces player i's partial signature S_i = x_i·h(M).
func SignShare(pp *pairing.Params, share shamir.Share, msg []byte) (shamir.PointShare, error) {
	h, err := HashMessage(pp, msg)
	if err != nil {
		return shamir.PointShare{}, err
	}
	s, err := h.ScalarMulSecret(share.Value)
	if err != nil {
		return shamir.PointShare{}, err
	}
	return shamir.PointShare{Index: share.Index, Value: s}, nil
}

// VerifyShare checks a partial signature against the player's verification
// key: ê(P, S_i) = ê(R_i, h(M)), as the one-call product
// ê(P, S_i)·ê(−R_i, h(M)) = 1.
func VerifyShare(pp *pairing.Params, vk *curve.Point, msg []byte, partial shamir.PointShare) error {
	h, err := HashMessage(pp, msg)
	if err != nil {
		return err
	}
	prod, err := pp.MultiPair(
		[]*curve.Point{pp.Generator(), vk.Neg()},
		[]*curve.Point{partial.Value, h},
	)
	if err != nil {
		return err
	}
	if !prod.IsOne() {
		return fmt.Errorf("%w: player %d", ErrInvalidShare, partial.Index)
	}
	return nil
}

// Combine interpolates t valid partial signatures into the group signature
// S = Σ λ_i·S_i, which verifies under the group key like an ordinary GDH
// signature.
func Combine(pp *pairing.Params, partials []shamir.PointShare, t int) (*curve.Point, error) {
	sig, err := shamir.ReconstructPoint(partials, t, pp.Q())
	if err != nil {
		return nil, fmt.Errorf("combine signature shares: %w", err)
	}
	return sig, nil
}

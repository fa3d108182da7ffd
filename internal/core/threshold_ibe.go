package core

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/mathx"
	"repro/internal/pairing"
	"repro/internal/shamir"
)

// (t, n) threshold Boneh-Franklin IBE (Section 3 of the paper).
//
// Setup: the PKG shares its master key s through a degree t−1 polynomial f,
// publishing P_pub = s·P and the verification points P_pub^(i) = f(i)·P.
// Keygen: player i receives the identity-key share d_IDi = f(i)·Q_ID and
// verifies ê(P_pub^(i), Q_ID) = ê(P, d_IDi).
// Decrypt: player i emits the decryption share ê(U, d_IDi); the recombiner
// picks t acceptable shares and computes g = Π ê(U, d_IDi)^λ_i, recovering
// m = V ⊕ H2(g).
// Robustness: each player can attach the NIZK proof of Section 3.2 showing
// its share is a consistent image under the pairing isomorphism; with
// n ≥ 2t−1 honest majority, bad shares are detected and the missing values
// recovered by Lagrange interpolation in GT.

var (
	// ErrShareVerification is returned when an identity-key share fails the
	// pairing consistency check.
	ErrShareVerification = errors.New("core: identity-key share failed verification")

	// ErrProofInvalid is returned when a decryption share's robustness proof
	// does not verify.
	ErrProofInvalid = errors.New("core: decryption-share proof invalid")

	// ErrNotEnoughValidShares is returned when fewer than t decryption
	// shares survive proof checking.
	ErrNotEnoughValidShares = errors.New("core: not enough valid decryption shares")
)

// ThresholdParams are the public parameters of the threshold system: the
// Boneh-Franklin publics plus the verification vector.
//
// Every share-verification equation pairs an identity's hash against the
// same n verification keys, so the params lazily cache one hash-argument
// Miller program per key (pairing.HashPairer: the hash's cofactor clearing
// is folded into the key, once). Use by pointer (the cache makes values
// non-copyable).
type ThresholdParams struct {
	Public *bf.PublicParams
	T, N   int
	// VerificationKeys[i-1] = P_pub^(i) = f(i)·P.
	VerificationKeys []*curve.Point

	vkOnce    sync.Once
	vkPairers []vkPairer // vkPairers[i-1] serves VerificationKeys[i-1]
}

// vkPairer is the lazily built hash-argument program of one verification
// key. Each key has its own Once, so the n concurrent verifications of a
// first decryption build their n programs in parallel instead of queueing
// behind one lock.
type vkPairer struct {
	once sync.Once
	hp   *pairing.HashPairer
	err  error // set for a key outside G1 ∖ {O} (nothing this package constructs)
}

// vkPairer returns the cached program of ê(P_pub^(i), ·) that pairs an
// identity's uncleared hash into cᵢ = ê(P_pub^(i), Q_ID) (i is 1-based and
// already range-checked by callers). A verification key that is not a G1
// point has no program and vouches for no share.
func (p *ThresholdParams) vkPairer(i int) (*pairing.HashPairer, error) {
	p.vkOnce.Do(func() { p.vkPairers = make([]vkPairer, len(p.VerificationKeys)) })
	e := &p.vkPairers[i-1]
	e.once.Do(func() { e.hp, e.err = p.Public.Pairing.NewHashPairer(p.VerificationKeys[i-1]) })
	if e.err != nil {
		return nil, fmt.Errorf("core: verification key of player %d: %w", i, e.err)
	}
	return e.hp, nil
}

// ThresholdPKG is the trusted dealer: it holds the sharing polynomial and
// issues per-identity key shares.
type ThresholdPKG struct {
	params *ThresholdParams
	poly   *shamir.Polynomial
}

// KeyShare is player i's share d_IDi = f(i)·Q_ID of an identity key.
//
// A share lazily carries cᵢ = ê(P_pub^(i), Q_ID), the public constant both its
// acceptance check and every proof it later emits are bound to, prepared as
// the base of the proof's W1 = cᵢ^r (pairing.SecretBase: cᵢ and its inverted
// imaginary part), so a player hashes the identity, pairs and inverts for it
// once — at VerifyKeyShare, i.e. at installation — and never per request.
// The constant is fixed by (ID, Index): leave those alone once the share is
// in use, and use shares by pointer.
//
//cryptolint:secret
type KeyShare struct {
	ID    string
	Index int
	D     *curve.Point

	pubOnce sync.Once
	pubBase *pairing.SecretBase //cryptolint:public (ê(P_pub^(i), Q_ID): computed from public values only)
	pubErr  error
}

// sharePubPair returns ê(P_pub^(i), Q_ID) for the share's identity and
// player index, prepared for secret exponents, computing it on first use.
// A caller about to finish another pairing passes its Miller value as
// beside: on a first use the two final exponentiations run together
// (pairing.Params.Finish) and *besideOut gets the other pairing; otherwise
// *besideOut is left nil.
func (p *ThresholdParams) sharePubPair(share *KeyShare, beside *pairing.Miller, besideOut **pairing.GT) (*pairing.SecretBase, error) {
	share.pubOnce.Do(func() {
		if share.Index < 1 || share.Index > p.N {
			share.pubErr = fmt.Errorf("core: player index %d out of range 1..%d", share.Index, p.N)
			return
		}
		qid, err := bf.HashIdentityArg(p.Public.Pairing, share.ID)
		if err != nil {
			share.pubErr = err
			return
		}
		hp, err := p.vkPairer(share.Index)
		if err != nil {
			share.pubErr = err
			return
		}
		ms := []pairing.Miller{hp.Miller(qid)}
		if beside != nil {
			ms = append(ms, *beside)
		}
		pairs := p.Public.Pairing.Finish(ms...)
		if beside != nil {
			*besideOut = pairs[1]
		}
		share.pubBase, share.pubErr = pairs[0].SecretBase()
	})
	return share.pubBase, share.pubErr
}

// DecryptionShare is player i's contribution ê(U, d_IDi) for one ciphertext,
// optionally carrying a robustness proof.
type DecryptionShare struct {
	Index int
	G     *pairing.GT
	Proof *ShareProof // nil when robustness is not requested
}

// SetupThreshold creates a (t, n) threshold system over the pairing
// parameters: master key s, polynomial f with f(0) = s, P_pub = s·P and the
// public verification vector.
func SetupThreshold(rng io.Reader, pp *pairing.Params, msgLen, t, n int) (*ThresholdPKG, error) {
	if t < 1 || n < t {
		return nil, fmt.Errorf("core: invalid threshold (t=%d, n=%d)", t, n)
	}
	s, err := mathx.RandomFieldElement(orRand(rng), pp.Q())
	if err != nil {
		return nil, fmt.Errorf("sample master key: %w", err)
	}
	base, err := bf.SetupWithMaster(pp, s, msgLen)
	if err != nil {
		return nil, err
	}
	poly, err := shamir.NewPolynomial(orRand(rng), s, pp.Q(), t)
	if err != nil {
		return nil, fmt.Errorf("share master key: %w", err)
	}
	vks, commit := poly.VerificationVector(pp.GeneratorMul, n)
	if !commit.Equal(base.Public().PPub) {
		return nil, fmt.Errorf("core: verification vector commitment mismatch")
	}
	return &ThresholdPKG{
		params: &ThresholdParams{
			Public:           base.Public(),
			T:                t,
			N:                n,
			VerificationKeys: vks,
		},
		poly: poly,
	}, nil
}

// Params returns the public threshold parameters.
func (tp *ThresholdPKG) Params() *ThresholdParams { return tp.params }

// VerifySetup lets any player check, before accepting shares, that the
// published verification vector is consistent: Σ λ_i·P_pub^(i) = P_pub for
// the given t-subset of indices.
func (p *ThresholdParams) VerifySetup(subset []int) error {
	return shamir.VerifyVector(p.VerificationKeys, p.Public.PPub, subset, p.Public.Pairing.Q())
}

// ExtractShare plays the paper's Keygen: it computes Q_ID and returns
// player i's share d_IDi = f(i)·Q_ID.
func (tp *ThresholdPKG) ExtractShare(id string, i int) (*KeyShare, error) {
	if i < 1 || i > tp.params.N {
		return nil, fmt.Errorf("core: player index %d out of range 1..%d", i, tp.params.N)
	}
	qid, err := bf.HashIdentity(tp.params.Public.Pairing, id)
	if err != nil {
		return nil, err
	}
	d, err := qid.ScalarMulSecret(tp.poly.Eval(big.NewInt(int64(i))))
	if err != nil {
		return nil, err
	}
	return &KeyShare{ID: id, Index: i, D: d}, nil
}

// NewThresholdParams assembles threshold parameters from externally
// produced material — a DKG run (internal/dkg) instead of the trusted
// dealer. The verification keys must satisfy vks[j-1] = x_j·P for player
// j's secret share x_j, and ppub = s·P for the joint secret.
func NewThresholdParams(pp *pairing.Params, msgLen, t, n int, ppub *curve.Point, vks []*curve.Point) (*ThresholdParams, error) {
	if t < 1 || n < t {
		return nil, fmt.Errorf("core: invalid threshold (t=%d, n=%d)", t, n)
	}
	if len(vks) != n {
		return nil, fmt.Errorf("core: %d verification keys for n=%d players", len(vks), n)
	}
	if msgLen <= 0 {
		return nil, fmt.Errorf("core: message length %d must be positive", msgLen)
	}
	params := &ThresholdParams{
		Public:           &bf.PublicParams{Pairing: pp, PPub: ppub, MsgLen: msgLen},
		T:                t,
		N:                n,
		VerificationKeys: append([]*curve.Point(nil), vks...),
	}
	// The dealer-free setup is still publicly checkable: any t-subset of
	// the verification keys must interpolate to P_pub.
	subset := make([]int, t)
	for i := range subset {
		subset[i] = i + 1
	}
	if err := params.VerifySetup(subset); err != nil {
		return nil, fmt.Errorf("core: DKG output inconsistent: %w", err)
	}
	return params, nil
}

// KeyShareFromScalar lets a player holding the secret-share scalar x_j
// (e.g. from a DKG) derive its identity-key share d_IDj = x_j·Q_ID without
// any dealer involvement.
func KeyShareFromScalar(pp *pairing.Params, id string, j int, x *big.Int) (*KeyShare, error) {
	qid, err := bf.HashIdentity(pp, id)
	if err != nil {
		return nil, err
	}
	d, err := qid.ScalarMulSecret(x)
	if err != nil {
		return nil, err
	}
	return &KeyShare{ID: id, Index: j, D: d}, nil
}

// VerifyKeyShare is the player's acceptance check from the paper:
// ê(P_pub^(i), Q_ID) = ê(P, d_IDi). A failing share triggers a complaint to
// the PKG.
func (p *ThresholdParams) VerifyKeyShare(share *KeyShare) error {
	pp := p.Public.Pairing
	m := pp.MillerWithGenerator(share.D)
	var rhs *pairing.GT
	lhs, err := p.sharePubPair(share, &m, &rhs)
	if err != nil {
		return err
	}
	if rhs == nil {
		rhs = pp.Finish(m)[0]
	}
	if !lhs.GT().Equal(rhs) {
		return fmt.Errorf("%w: player %d, identity %q", ErrShareVerification, share.Index, share.ID)
	}
	return nil
}

// sharePair is the decryption share's value ê(d_IDi, U) (= ê(U, d_IDi): ê is
// symmetric on G1, bit for bit) computed as the SEM computes its token: the
// player's own key is the walked argument and U only the evaluation point,
// so a cofactor component of U contributes nothing (DESIGN §7). That needs
// d_IDi in G1 ∖ {O}, which is checked here — once per share, the verdict is
// memoized on the point — because VerifyKeyShare cannot see it (there d_IDi
// is the evaluation point).
func (p *ThresholdParams) sharePair(share *KeyShare, u *curve.Point) (*pairing.GT, error) {
	if err := share.D.Validate(); err != nil {
		return nil, fmt.Errorf("core: key share of player %d: %w", share.Index, err)
	}
	return p.Public.Pairing.Pair(share.D, u)
}

// ComputeShare produces player i's decryption share ê(U, d_IDi) for the
// BasicIdent ciphertext component U, without a robustness proof.
func (p *ThresholdParams) ComputeShare(share *KeyShare, u *curve.Point) (*DecryptionShare, error) {
	g, err := p.sharePair(share, u)
	if err != nil {
		return nil, err
	}
	return &DecryptionShare{Index: share.Index, G: g}, nil
}

// ShareProof is the non-interactive proof of Section 3.2 that a decryption
// share is the correct image of the player's key share under both pairing
// maps ê(P, ·) and ê(U, ·): the player proves knowledge of d_IDi such that
// ê(P, d_IDi) = ê(P_pub^(i), Q_ID) and ê(U, d_IDi) = share.
type ShareProof struct {
	W1 *pairing.GT // ê(P, R) for the random commitment R = r·d_IDi
	W2 *pairing.GT // ê(U, R)
	E  *big.Int    // Fiat-Shamir challenge
	// V is R + e·d_IDi. A verifier holds it as received: on the curve, not
	// subgroup-checked, good for the linear combination VerifyShareProofs
	// pairs and nothing else (DESIGN §7).
	V curve.EvalPoint
}

// ShareX is a decryption share with its proof as a player computes them
// from U's abscissa alone (ThresholdPlayer.Share): G = ê(U, d_IDi) and
// W2 = G^r are values of U's ring F_p[j]/(j² + s) (pairing.GTX), which the
// holder of U resolves into the ShareProof's GT elements (ResolveShare);
// W1, E and V are the proof's own. Its bytes are what a player sends.
type ShareX struct {
	Index int
	G, W2 pairing.GTX
	W1    *pairing.GT
	E     *big.Int
	V     *curve.Point
}

// ResolveShare resolves a player's x-only answer with u's y (DESIGN §7
// "The share from U's abscissa"): G and W2 by one product each
// (pairing.GTX.Resolve), W1, E and V as they are. The GT membership of the
// results is not checked; a recombiner decodes a player's bytes through
// wire.UnmarshalGTEach, which resolves and checks.
func ResolveShare(sx *ShareX, u curve.EvalArg) *DecryptionShare {
	return &DecryptionShare{
		Index: sx.Index,
		G:     sx.G.Resolve(u),
		Proof: &ShareProof{W1: sx.W1, W2: sx.W2.Resolve(u), E: sx.E, V: curve.EvalPointOf(sx.V)},
	}
}

// ComputeShareWithProof produces the decryption share together with its
// robustness proof, from nothing but the share: the player's computation
// from U's abscissa (a fresh x-only pairing, then proveShare), resolved
// with U's y. (A ThresholdPlayer serves the pairing from a cached program
// instead and leaves the resolving to the recombiner.)
func (p *ThresholdParams) ComputeShareWithProof(rng io.Reader, share *KeyShare, u *curve.Point) (*DecryptionShare, error) {
	if err := share.D.Validate(); err != nil {
		return nil, fmt.Errorf("core: key share of player %d: %w", share.Index, err)
	}
	ux := curve.EvalXOf(u)
	g, err := p.Public.Pairing.PairX(share.D, ux)
	if err != nil {
		return nil, err
	}
	sx, err := p.proveShare(rng, share, g, ux, nil)
	if err != nil {
		return nil, err
	}
	return ResolveShare(sx, u), nil
}

// proveShare attaches Section 3.2's proof to the share value
// g = ê(U, d_IDi), which it holds in U's ring as PairX answers it against
// u, U's abscissa.
//
// The commitment is R = r·d_IDi for r ← [1, q). §3.2 asks only that R be
// uniform in G1, and it is: d_IDi ≠ O generates the prime-order G1, so
// r ↦ r·d_IDi is a bijection onto G1 ∖ {O} exactly as r ↦ r·P is — the
// simulator and the verifier do not change. What changes is the price: both
// commitment pairings are powers of values the player already holds,
//
//	W1 = ê(P, R) = ê(P, d_IDi)^r = cᵢ^r   (cᵢ = ê(P_pub^(i), Q_ID), cached on the share)
//	W2 = ê(U, R) = ê(U, d_IDi)^r = g^r
//	V  = R + e·d_IDi = (r + e)·d_IDi
//
// the same GT and G1 elements two pairings against R would give, for two
// GT exponentiations and one scalar multiplication. W2 is taken in U's
// ring, where g is, and resolves with y_U to the GT element g^r, since
// j ↦ y_U·i is a ring isomorphism. The challenge hashes what the player
// holds: x_U, g and W2 in U's ring, cᵢ and W1 (proofChallenge).
//
// r and r + e are nonce-grade — either one, with the published e and V, gives
// d_IDi = (r + e)⁻¹·V away — so nothing here lets them steer a branch or an
// address. W1 and W2 share the secret r and both bases are public and of
// norm 1, so they are one trace ladder of |q| steps for the two
// (pairing.Params.ExpSecretX; one lane call on the lane engine), cᵢ
// prepared once on the share and g by one constant-time inversion here. V has
// the fixed base d_IDi and comes off entry, the share's line in a player's
// cache, as a constant-time comb walk (keyPairer.mulSecret) — or, with no
// entry (nil: an identity the cache did not admit, the cacheless
// ComputeShareWithProof), from ScalarMulSecret, the same point. Two field
// inversions per share, g's and V's, each by the constant-time
// fp.Field.Inv.
func (p *ThresholdParams) proveShare(rng io.Reader, share *KeyShare, g pairing.GTX, u curve.EvalX, entry *keyPairer) (*ShareX, error) {
	pp := p.Public.Pairing
	q := pp.Q()
	pubBase, err := p.sharePubPair(share, nil, nil)
	if err != nil {
		return nil, err
	}
	r, err := mathx.RandomFieldElement(orRand(rng), q)
	if err != nil {
		return nil, fmt.Errorf("sample proof nonce: %w", err)
	}
	w1, w2, err := pp.ExpSecretX(r, pubBase, g, u)
	if err != nil {
		return nil, err
	}
	e := proofChallenge(q, pp.Curve().AbscissaBytes(u), g, pubBase.GT(), w1, w2)
	// r + e is reduced by math/big — one limb-wise add and one reduction
	// below 2q — and consumed only by mulSecret, never branched on, compared
	// or encoded. r + e ≡ 0 gives V = O like any other multiple.
	k := new(big.Int).Mod(new(big.Int).Add(r, e), q) //cryptolint:public (the flagged operand is the Fiat–Shamir challenge e, which is published; the nonce r enters the sum as it left mathx.RandomFieldElement — one limb-wise add and one reduction below 2q)
	v, err := entry.mulSecret(share.D, k)
	if err != nil {
		return nil, fmt.Errorf("core: key share of player %d: %w", share.Index, err)
	}
	return &ShareX{Index: share.Index, G: g, W1: w1, W2: w2, E: e, V: v}, nil
}

// VerifyShareProof checks a decryption share's robustness proof against the
// player's public verification key: the one-share case of VerifyShareProofs
// for a verifier that holds the identity as a string.
func (p *ThresholdParams) VerifyShareProof(id string, u *curve.Point, ds *DecryptionShare) error {
	qid, err := bf.HashIdentityArg(p.Public.Pairing, id)
	if err != nil {
		return err
	}
	return p.VerifyShareProofFor(qid, u, ds)
}

// VerifyShareProofFor is VerifyShareProof for a verifier that has already
// hashed the identity: qid must be bf.HashIdentityArg(ID).
func (p *ThresholdParams) VerifyShareProofFor(qid *pairing.HashArg, u *curve.Point, ds *DecryptionShare) error {
	return p.VerifyShareProofs(qid, u, []*DecryptionShare{ds})
}

// batchCoefficientBits is the size of the random coefficients that fold the
// shares of one ciphertext into a single check: a set with a bad share
// passes with probability ≤ 2⁻¹²⁸ over them.
const batchCoefficientBits = 128

// VerifyShareProofs checks the robustness proofs of decryption shares of
// one ciphertext component u under the identity whose hash is qid
// (bf.HashIdentityArg: Q_ID is only ever paired against the verification
// keys here, so it is never cofactor-cleared) — the proofs of Section 3.2,
// which for share i with cᵢ = ê(P_pub^(i), Q_ID) assert
//
//	ê(P, Vᵢ) = W1ᵢ · cᵢ^eᵢ   and   ê(U, Vᵢ) = W2ᵢ · Gᵢ^eᵢ
//
// with eᵢ = H(Gᵢ, cᵢ, W1ᵢ, W2ᵢ) honestly derived (Fiat-Shamir). Every share
// has its cᵢ computed, its challenge recomputed and compared; the 2n
// pairing equations are then checked as one. With verifier-private
// ρ ← [1, q) folding each share's pair of equations and a₁ = 1,
// aᵢ ← [1, 2¹²⁸) folding the shares,
//
//	ê(ρ·P + U, Σ aᵢ·Vᵢ)  ≟  [ Π (W1ᵢ · cᵢ^eᵢ)^aᵢ ]^ρ · Π (W2ᵢ · Gᵢ^eᵢ)^aᵢ
//
// is one pairing, one fixed-base multiplication of the generator
// (pairing.Params.GeneratorMul, a comb walk where a ladder on U costs 2.5 times
// as much), one n-term multi-scalar multiplication and one 4n-term GT
// multi-exponentiation. Write share i's two quotients as g^αᵢ and g^βᵢ in the
// order-q group GT: the check is Σ aᵢ·(ρ·αᵢ + βᵢ) = 0. A share with
// (αᵢ, βᵢ) ≠ (0, 0) keeps ρ·αᵢ + βᵢ ≠ 0 for all but at most one ρ, and a
// linear form in the aᵢ with a nonzero coefficient then vanishes for at most
// one value of that aᵢ (never, if it is the fixed a₁ alone) — a set holding a
// bad share passes with probability ≤ 1/(q−1) + 2⁻¹²⁸ (q > 2¹²⁸ at paper
// size; under a smaller q the coefficients act modulo q and the second term
// is ≈ 1/q like the first). Which equation ρ weighs does not matter to the
// argument; that it is fresh does — a prover who moves W1 by g^δ and W2 by
// g^−δ leaves α = −δ, β = δ, which cancel for ρ = 1. ρ is drawn per call
// after the shares are in, used once and never published, and the comb walk
// behind ρ·P is the same for every ρ.
//
// The soundness argument is about equations between elements of G1 and GT.
// For Gᵢ, W1ᵢ, W2ᵢ membership is the decoding boundary's business
// (wire.UnmarshalGT), checked there per element and never folded. A Vᵢ
// need only be a point of E(F_p): it enters nothing but the sum Σ aᵢ·Vᵢ —
// exact on the whole curve — which is then the evaluation point of a pairing
// whose walked argument ρ·P + U is in G1, and that argument is
// cofactor-blind. Writing Vᵢ = Vᵢ,q + Tᵢ with Tᵢ of cofactor
// order, the equation checked is exactly the equation for the projections
// Vᵢ,q: a prover sending V_q + T gains nothing it could not have by sending
// V_q, and a V of pure cofactor order is the claim V_q = O (DESIGN §7).
//
// All of the above is for u ∈ G1, which this function does not check: the
// scheme defines a plaintext only for such a u (an honest sender's r·P). For
// a u outside G1, ρ·P + u is not in G1 either, what Pair returns is no
// pairing value — not bilinear, not blind to a Vᵢ's cofactor part — and a
// verdict here means nothing. cluster's recombiner validates u only after a
// round has failed (honest proofs always fail against such a u), which is
// enough to answer ErrBadCiphertext and blame nobody; a caller that must
// never accept shares for a malformed ciphertext validates u itself
// (wire.UnmarshalG1, or u.Validate()). DESIGN §7 has the reasoning.
//
// A nil error accepts every share. An error (ErrProofInvalid for anything a
// prover can cause) says that some share is bad, not which one — verify them
// singly to find out, as AcceptableShares does.
func (p *ThresholdParams) VerifyShareProofs(qid *pairing.HashArg, u *curve.Point, shares []*DecryptionShare) error {
	pp := p.Public.Pairing
	q := pp.Q()
	n := len(shares)
	if n == 0 {
		return nil
	}
	players := make([]int, n)
	for i, ds := range shares {
		if ds == nil || ds.Proof == nil {
			return fmt.Errorf("%w: missing proof", ErrProofInvalid)
		}
		// V = O counts as absent: the wire cannot carry it, and an honest
		// prover sends it with probability 1/q.
		if ds.G == nil || ds.Proof.W1 == nil || ds.Proof.W2 == nil || ds.Proof.E == nil || ds.Proof.V.IsInfinity() {
			return fmt.Errorf("%w: incomplete proof (player %d)", ErrProofInvalid, ds.Index)
		}
		if ds.Index < 1 || ds.Index > p.N {
			return fmt.Errorf("%w: index %d out of range", ErrProofInvalid, ds.Index)
		}
		players[i] = ds.Index
	}

	rho, err := mathx.RandomFieldElement(rand.Reader, q)
	if err != nil {
		return fmt.Errorf("sample verification scalar: %w", err)
	}
	one := big.NewInt(1)
	coefBound := new(big.Int).Lsh(one, batchCoefficientBits)
	// ρ and the aᵢ read nothing of the shares, so the folded pairing is
	// walked beside the n cᵢ replays and all n + 1 final exponentiations are
	// finished together (pairing.Params.Finish); each cᵢ comes out exact and
	// enters its challenge as before.
	as := make([]*big.Int, n)
	vs := make([]curve.EvalPoint, n)
	ms := make([]pairing.Miller, n+1)
	for i, ds := range shares {
		as[i] = one
		if i > 0 {
			if as[i], err = mathx.RandomInRange(rand.Reader, one, coefBound); err != nil {
				return fmt.Errorf("sample batching coefficient: %w", err)
			}
		}
		vs[i] = ds.Proof.V
		hp, err := p.vkPairer(ds.Index)
		if err != nil {
			return err
		}
		ms[i] = hp.Miller(qid)
	}
	v, err := pp.Curve().EvalSum(as, vs)
	if err != nil {
		return err
	}
	ms[n] = pp.Miller(pp.GeneratorMul(rho).Add(u), v)
	pairs := pp.Finish(ms...)

	// Each challenge is recomputed over what its player hashed: x_U, and G
	// and W2 in U's ring — their x-only forms, one inversion of y_U for all
	// (pairing.Params.UnresolveX).
	xU := pp.Curve().AbscissaBytes(curve.EvalXOf(u))
	gw := make([]*pairing.GT, 0, 2*n)
	for _, ds := range shares {
		gw = append(gw, ds.G, ds.Proof.W2)
	}
	xs := pp.UnresolveX(u, gw...)

	// The right-hand side as 4n (base, exponent) terms:
	// W1ᵢ^(aᵢρ) · cᵢ^(aᵢeᵢρ) · W2ᵢ^aᵢ · Gᵢ^(aᵢeᵢ).
	bases := make([]*pairing.GT, 4*n)
	exps := make([]*big.Int, 4*n)
	for i, ds := range shares {
		pubPair := pairs[i]
		e := proofChallenge(q, xU, xs[2*i], pubPair, ds.Proof.W1, xs[2*i+1])
		if e.Cmp(ds.Proof.E) != 0 { //cryptolint:public (Fiat–Shamir challenge check; the proof and challenge are public values)
			return fmt.Errorf("%w: challenge mismatch (player %d)", ErrProofInvalid, ds.Index)
		}
		a := as[i]
		ae := mathx.MulMod(a, e, q)
		copy(bases[4*i:], []*pairing.GT{ds.Proof.W1, pubPair, ds.Proof.W2, ds.G})
		copy(exps[4*i:], []*big.Int{mathx.MulMod(a, rho, q), mathx.MulMod(ae, rho, q), a, ae})
	}
	rhs, err := pp.MultiExp(bases, exps)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrProofInvalid, err)
	}
	if !pairs[n].Equal(rhs) {
		return fmt.Errorf("%w: combined pairing equation (players %v)", ErrProofInvalid, players)
	}
	return nil
}

// AcceptableShares is the recombiner's accept rule, written once: it splits
// the decryption shares offered for one ciphertext component u into those a
// combination may use and the player indices it turned away (ascending).
//
// All proofs are checked together (VerifyShareProofs), which is all an
// honest set ever costs; only when that fails is each share verified on its
// own, to name who lied. Either way no share is returned that a passed
// check does not cover. Of several verifying shares with one index — one
// player's share offered again by another — the first is kept and the rest
// are turned away, so len(valid) counts distinct players and t of them
// always interpolate.
func (p *ThresholdParams) AcceptableShares(qid *pairing.HashArg, u *curve.Point, shares []*DecryptionShare) (valid []*DecryptionShare, rejected []int) {
	ok := shares
	if p.VerifyShareProofs(qid, u, shares) != nil {
		ok = make([]*DecryptionShare, 0, len(shares))
		for _, ds := range shares {
			if p.VerifyShareProofFor(qid, u, ds) == nil {
				ok = append(ok, ds)
			} else if ds != nil {
				rejected = append(rejected, ds.Index)
			}
		}
	}
	seen := make(map[int]bool, len(ok))
	valid = make([]*DecryptionShare, 0, len(ok))
	for _, ds := range ok {
		if seen[ds.Index] {
			rejected = append(rejected, ds.Index)
			continue
		}
		seen[ds.Index] = true
		valid = append(valid, ds)
	}
	sort.Ints(rejected)
	return valid, rejected
}

// proofChallenge is the Fiat-Shamir hash e = H(x_U, g, pubPair, w1, w2) ∈
// F_q over what the player holds: U's abscissa and g and w2 in U's ring,
// which U and −U share — a proof verifies for both, each resolving it with
// its own y (DESIGN §7 "The share from U's abscissa").
func proofChallenge(q *big.Int, xU []byte, g pairing.GTX, pubPair, w1 *pairing.GT, w2 pairing.GTX) *big.Int {
	h := sha256.New()
	h.Write([]byte("THIBE-PROOF-X"))
	h.Write(xU)
	h.Write(g.Bytes())
	h.Write(pubPair.Bytes())
	h.Write(w1.Bytes())
	h.Write(w2.Bytes())
	return mathx.BytesToIntMod(h.Sum(nil), q)
}

// Recombine combines t decryption shares into the pairing value
// g = Π share_i^λ_i and opens the BasicIdent ciphertext with it, as the
// full key's DecryptBasic does (bf's OpenBasicWithPairingValue). The caller
// is responsible for having selected "acceptable" shares (verified proofs);
// Recombine itself checks only structural validity.
func (p *ThresholdParams) Recombine(shares []*DecryptionShare, c *bf.BasicCiphertext) ([]byte, error) {
	g, err := p.CombineShares(shares)
	if err != nil {
		return nil, err
	}
	return p.Public.OpenBasicWithPairingValue(g, c)
}

// CombineShares interpolates g = Π share_i^λ_i from exactly t shares.
func (p *ThresholdParams) CombineShares(shares []*DecryptionShare) (*pairing.GT, error) {
	return p.interpolate(shares, 0)
}

// RecoverShare interpolates the decryption share of an absent or dishonest
// player j from t honest shares: share_j = Π share_i^{λ_i(j)} — the
// "t among the others can combine their shares to find the one of the
// dishonest ones" step of Section 3.2.
func (p *ThresholdParams) RecoverShare(shares []*DecryptionShare, j int) (*DecryptionShare, error) {
	g, err := p.interpolate(shares, j)
	if err != nil {
		return nil, err
	}
	return &DecryptionShare{Index: j, G: g}, nil
}

// interpolate evaluates the degree t−1 polynomial in the exponent that the
// first t shares lie on at x = at, as Π share_i^{λ_i(at)} in one GT
// multi-exponentiation. The t indices must be distinct and differ from at.
func (p *ThresholdParams) interpolate(shares []*DecryptionShare, at int) (*pairing.GT, error) {
	if len(shares) < p.T {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughValidShares, len(shares), p.T)
	}
	use := shares[:p.T]
	xs := make([]*big.Int, p.T)
	gs := make([]*pairing.GT, p.T)
	seen := make(map[int]bool, p.T)
	for i, s := range use {
		if s.Index == at {
			return nil, fmt.Errorf("core: share %d already present", at)
		}
		if seen[s.Index] {
			return nil, fmt.Errorf("core: duplicate share index %d", s.Index)
		}
		seen[s.Index] = true
		xs[i], gs[i] = big.NewInt(int64(s.Index)), s.G
	}
	q, x := p.Public.Pairing.Q(), big.NewInt(int64(at))
	lis := make([]*big.Int, p.T)
	for i := range lis {
		var err error
		if lis[i], err = mathx.LagrangeAt(i, xs, x, q); err != nil {
			return nil, fmt.Errorf("lagrange coefficient: %w", err)
		}
	}
	return p.Public.Pairing.MultiExp(gs, lis)
}

// RobustDecrypt is the full robust recombiner: it checks the shares' proofs
// (AcceptableShares), discards what fails, and if shares of at least t
// distinct players survive, recombines and opens the ciphertext. It returns
// the indices of rejected players alongside the plaintext.
func (p *ThresholdParams) RobustDecrypt(id string, shares []*DecryptionShare, c *bf.BasicCiphertext) (msg []byte, rejected []int, err error) {
	if err := p.Public.CheckBasic(c); err != nil {
		return nil, nil, err
	}
	qid, err := bf.HashIdentityArg(p.Public.Pairing, id)
	if err != nil {
		return nil, nil, err
	}
	valid, rejected := p.AcceptableShares(qid, c.U, shares)
	if len(valid) < p.T {
		return nil, rejected, fmt.Errorf("%w: %d of %d shares valid", ErrNotEnoughValidShares, len(valid), len(shares))
	}
	msg, err = p.Recombine(valid, c)
	return msg, rejected, err
}

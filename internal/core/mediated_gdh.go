package core

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/bls"
	"repro/internal/curve"
	"repro/internal/mathx"
	"repro/internal/pairing"
)

// Mediated GDH signature (Section 5 of the paper).
//
// A trusted authority picks x_user, x_sem ∈R F_q, gives each party its
// scalar and publishes R = (x_user + x_sem)·P. To sign M, the user sends
// h(M) to the SEM (which first checks revocation) and receives
// S_sem = x_sem·h(M) — a single compressed G1 point, the "160 bits" the
// paper contrasts with mRSA's 1024-bit half-signature. The user adds its
// own half S_user = x_user·h(M) and verifies the combined signature before
// releasing it. Verification is plain GDH: ê(P, S) = ê(R, h(M)).

// GDHUserKey is the user's signing-scalar half.
//
//cryptolint:secret
type GDHUserKey struct {
	ID     string
	X      *big.Int
	Public *bls.PublicKey //cryptolint:public (the combined public key R)
}

// GDHSEMKey is the SEM's signing-scalar half.
//
//cryptolint:secret
type GDHSEMKey struct {
	ID string
	X  *big.Int
}

// GDHAuthority is the trusted authority (TA) that performs the key setup.
type GDHAuthority struct {
	pp *pairing.Params
}

// NewGDHAuthority binds the TA to the pairing parameters.
func NewGDHAuthority(pp *pairing.Params) *GDHAuthority {
	return &GDHAuthority{pp: pp}
}

// Keygen runs the paper's Keygen for one user: sample both halves, publish
// R_i = (x_user + x_sem)·P.
//
//cryptolint:vartime (offline dealing at the TA; the big.Int scalar sum never runs on an online path)
func (a *GDHAuthority) Keygen(rng io.Reader, id string) (*GDHUserKey, *GDHSEMKey, error) {
	xu, err := mathx.RandomFieldElement(orRand(rng), a.pp.Q())
	if err != nil {
		return nil, nil, fmt.Errorf("sample user half: %w", err)
	}
	xs, err := mathx.RandomFieldElement(orRand(rng), a.pp.Q())
	if err != nil {
		return nil, nil, fmt.Errorf("sample SEM half: %w", err)
	}
	sum := new(big.Int).Add(xu, xs)
	sum.Mod(sum, a.pp.Q())
	pub := &bls.PublicKey{Pairing: a.pp, R: a.pp.GeneratorMul(sum)}
	return &GDHUserKey{ID: id, X: xu, Public: pub}, &GDHSEMKey{ID: id, X: xs}, nil
}

// GDHSEM is the mediator side of the mediated GDH signature. Safe for
// concurrent use.
type GDHSEM struct {
	pp   *pairing.Params
	reg  *Registry
	keys *keyStore[*GDHSEMKey]
}

// NewGDHSEM constructs a GDH SEM over a (possibly shared) revocation
// registry.
func NewGDHSEM(pp *pairing.Params, reg *Registry) *GDHSEM {
	return &GDHSEM{pp: pp, reg: reg, keys: newKeyStore[*GDHSEMKey]()}
}

// Register installs an identity's SEM signing half.
func (s *GDHSEM) Register(half *GDHSEMKey) { s.keys.put(half.ID, half) }

// Registry exposes the revocation registry (admin interface).
func (s *GDHSEM) Registry() *Registry { return s.reg }

// HalfSign is the SEM's protocol step: check revocation, then return
// S_sem = x_sem·h, where h is the (already hashed) message point the user
// sent. The SEM never sees the user's half-signature.
func (s *GDHSEM) HalfSign(id string, h *curve.Point) (*curve.Point, error) {
	if err := s.reg.Check(id); err != nil {
		return nil, err
	}
	half, ok := s.keys.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	if h == nil || h.IsInfinity() || !h.InSubgroup() {
		return nil, fmt.Errorf("core: message hash is not a valid G1 element")
	}
	return h.ScalarMulSecret(half.X)
}

// UserSign completes the user's protocol steps: compute S_user = x_user·h(M),
// add the SEM half, and verify the combined signature before returning it
// (the paper's step 3: "He verifies that S_M is a valid signature on M").
func UserSign(key *GDHUserKey, msg []byte, semHalf *curve.Point) (*curve.Point, error) {
	h, err := bls.HashMessage(key.Public.Pairing, msg)
	if err != nil {
		return nil, err
	}
	userHalf, err := h.ScalarMulSecret(key.X)
	if err != nil {
		return nil, err
	}
	sig := semHalf.Add(userHalf)
	if err := key.Public.Verify(msg, sig); err != nil {
		return nil, fmt.Errorf("combined mediated signature invalid: %w", err)
	}
	return sig, nil
}

// Sign runs the full two-party signing protocol in-process; the networked
// flow lives in internal/sem.
func Sign(sem *GDHSEM, key *GDHUserKey, msg []byte) (*curve.Point, error) {
	h, err := bls.HashMessage(key.Public.Pairing, msg)
	if err != nil {
		return nil, err
	}
	semHalf, err := sem.HalfSign(key.ID, h)
	if err != nil {
		return nil, err
	}
	return UserSign(key, msg, semHalf)
}

// RecombineGDHKey reassembles the full signing scalar from both halves —
// collusion-experiment use only.
//
//cryptolint:vartime (collusion-experiment helper, never part of a protocol run)
func RecombineGDHKey(user *GDHUserKey, sem *GDHSEMKey) (*bls.PrivateKey, error) {
	if user.ID != sem.ID {
		return nil, fmt.Errorf("core: halves belong to different identities (%q, %q)", user.ID, sem.ID)
	}
	sum := new(big.Int).Add(user.X, sem.X)
	return bls.KeyFromScalar(user.Public.Pairing, sum)
}

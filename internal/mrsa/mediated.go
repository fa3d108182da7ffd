package mrsa

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/mathx"
)

// This file implements the mediated-RSA key split of Boneh, Ding, Tsudik and
// Wong and the identity based IB-mRSA variant the paper reviews in
// Section 2: the private exponent is split additively,
//
//	d = d_user + d_sem  (mod φ(n)),
//
// so the user's and the SEM's half-results multiply to the full RSA
// operation: c^d = c^{d_user} · c^{d_sem} (mod n). Revocation = the SEM
// stops producing its half.

// ErrIdentityExponent is returned when an identity hashes to an exponent
// that is not invertible mod φ(n) — the event the paper argues is
// negligible with safe primes.
var ErrIdentityExponent = errors.New("mrsa: identity exponent not invertible mod φ(n)")

// Split divides kp's private exponent into a user half and a SEM half
// (mathx.SplitExponent, per the paper's Keygen).
func Split(rng io.Reader, kp *KeyPair) (user, sem *mathx.ExpHalf, err error) {
	return mathx.SplitExponent(rng, kp.Public.N, kp.D, kp.Phi)
}

// Combine multiplies two half-results modulo n.
func Combine(n, a, b *big.Int) *big.Int {
	out := new(big.Int).Mul(a, b)
	return out.Mod(out, n)
}

// MediatedDecrypt runs the full two-party decryption locally (both halves
// in-process): c → c^{d_u}·c^{d_sem} → OAEP decode. The networked variant
// lives in internal/sem; this is the protocol reference and the benchmark
// body.
func MediatedDecrypt(pub *PublicKey, user, sem *mathx.ExpHalf, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != pub.ModulusBytes() {
		return nil, ErrDecrypt
	}
	c := new(big.Int).SetBytes(ciphertext)
	if c.Cmp(pub.N) >= 0 {
		return nil, ErrDecrypt
	}
	return FinishDecrypt(pub, Combine(pub.N, user.Op(c), sem.Op(c)))
}

// FinishDecrypt OAEP-decodes a recombined mediated-decryption result
// m = m_user·m_sem mod n: the user's final protocol step, in-process or
// when the SEM half arrived over the network (see internal/sem).
func FinishDecrypt(pub *PublicKey, combined *big.Int) ([]byte, error) {
	k := pub.ModulusBytes()
	em, err := mathx.PadBytes(combined, k)
	if err != nil {
		return nil, ErrDecrypt
	}
	msg, err := oaepDecode(em, nil, k)
	if err != nil {
		return nil, ErrDecrypt
	}
	return msg, nil
}

// EMSA returns the integer representative of msg's EMSA-PKCS1-v1_5 encoding
// under the modulus n: the element both signing halves exponentiate.
func EMSA(msg []byte, n *big.Int) (*big.Int, error) {
	em, err := emsaEncode(msg, (n.BitLen()+7)/8)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(em), nil
}

// SignHalf computes one party's signature half over msg: EMSA(msg)^half.
func SignHalf(h *mathx.ExpHalf, msg []byte) (*big.Int, error) {
	m, err := EMSA(msg, h.N)
	if err != nil {
		return nil, err
	}
	return h.Op(m), nil
}

// FinishSignature combines two signature halves, checks the result against
// the public key (the user-side step 3 of the paper's protocols) and
// serializes it.
func FinishSignature(pub *PublicKey, msg []byte, userHalf, semHalf *big.Int) ([]byte, error) {
	s := Combine(pub.N, userHalf, semHalf)
	sig, err := mathx.PadBytes(s, pub.ModulusBytes())
	if err != nil {
		return nil, ErrVerify
	}
	if err := pub.Verify(msg, sig); err != nil {
		return nil, fmt.Errorf("combined mediated signature: %w", err)
	}
	return sig, nil
}

// IBPKG is the IB-mRSA key generation center: it owns the common modulus'
// factorization and derives every user's exponent pair from their identity.
// Unlike plain mRSA, *all* users share n — which is exactly why the paper
// stresses that a single reassembled (e, d) pair destroys the whole system
// (see FactorFromED).
//
//cryptolint:secret
type IBPKG struct {
	n   *big.Int
	phi *big.Int
	p   *big.Int
	q   *big.Int
}

// NewIBPKG generates an IB-mRSA system with a bits-size Blum-style modulus
// built from safe primes, per the paper's Setup.
func NewIBPKG(rng io.Reader, bits int) (*IBPKG, error) {
	p, q, err := generatePrimes(rng, bits, true)
	if err != nil {
		return nil, fmt.Errorf("ib-mrsa setup: %w", err)
	}
	return NewIBPKGFromPrimes(p, q)
}

// NewIBPKGFromPrimes builds the PKG from explicit safe primes (for the
// embedded fixed parameters).
func NewIBPKGFromPrimes(p, q *big.Int) (*IBPKG, error) {
	if !mathx.IsSafePrime(p) || !mathx.IsSafePrime(q) {
		return nil, fmt.Errorf("mrsa: IB-mRSA requires safe primes")
	}
	if p.Cmp(q) == 0 {
		return nil, fmt.Errorf("mrsa: primes must differ")
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	return &IBPKG{
		n:   n,
		phi: new(big.Int).Mul(pm1, qm1),
		p:   new(big.Int).Set(p),
		q:   new(big.Int).Set(q),
	}, nil
}

// Modulus returns a copy of the shared modulus n.
func (g *IBPKG) Modulus() *big.Int { return new(big.Int).Set(g.n) }

// IdentityExponent maps an identity to its public exponent following the
// paper's Keygen: e = 0^s ‖ H(ID) ‖ 1 — the SHA-256 digest left-padded with
// zeros into the k-bit frame and forced odd by the trailing 1 bit.
func IdentityExponent(id string) *big.Int {
	digest := sha256.Sum256([]byte(id))
	e := new(big.Int).SetBytes(digest[:])
	e.Lsh(e, 1)
	return e.Or(e, one)
}

// IdentityPublicKey returns the RSA public key (n, e_ID) any sender can
// derive from the identity alone — the identity based property.
func (g *IBPKG) IdentityPublicKey(id string) *PublicKey {
	return &PublicKey{N: g.Modulus(), E: IdentityExponent(id)}
}

// IssueHalves derives the identity's private exponent and splits it between
// the user and the SEM, per the paper's four-step Keygen.
func (g *IBPKG) IssueHalves(rng io.Reader, id string) (user, sem *mathx.ExpHalf, err error) {
	d, err := g.FullExponent(id)
	if err != nil {
		return nil, nil, err
	}
	return mathx.SplitExponent(rng, g.n, d, g.phi)
}

// FullExponent returns the unsplit private exponent for an identity. Outside
// IssueHalves only the attack demonstrations use it (a real PKG never hands
// this out).
func (g *IBPKG) FullExponent(id string) (*big.Int, error) {
	d, err := mathx.InverseMod(IdentityExponent(id), g.phi)
	if err != nil {
		return nil, fmt.Errorf("%w: identity %q", ErrIdentityExponent, id)
	}
	return d, nil
}

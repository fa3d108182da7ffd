// Package bf implements the Boneh-Franklin identity based encryption scheme
// from the Weil/Tate pairing, in both variants the paper builds on:
//
//   - BasicIdent: C = <rP, m ⊕ H2(ê(P_pub, Q_ID)^r)> — IND-ID-CPA only, and
//     deliberately malleable (the threshold scheme of Section 3 is its
//     threshold adaptation; the malleability is demonstrated by the security
//     game tests).
//   - FullIdent: the Fujisaki-Okamoto strengthened variant
//     C = <rP, σ ⊕ H2(g^r), M ⊕ H4(σ)> with r = H3(σ, M) — IND-ID-CCA in
//     the random oracle model. The paper's mediated IBE (Section 4) is the
//     2-out-of-2 split of exactly this scheme, so its decryption path is
//     shared here via OpenWithPairingValue.
//
// Random oracles are instantiated with domain-separated SHA-256:
// H1 hashes identities into G1 (curve.HashToPoint), H2 masks GT elements,
// H3 derives the encryption randomness from (σ, M), H4 masks the message.
package bf

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"repro/internal/curve"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/pairing"
)

// Domain-separation tags for the scheme's random oracles.
const (
	domainH1 = "BF-IBE-H1"
	domainH2 = "BF-IBE-H2"
	domainH3 = "BF-IBE-H3"
	domainH4 = "BF-IBE-H4"
)

var (
	// ErrInvalidCiphertext is returned by FullIdent decryption when the
	// Fujisaki-Okamoto validity check U = H3(σ, M)·P fails — a mauled or
	// malformed ciphertext.
	ErrInvalidCiphertext = errors.New("bf: invalid ciphertext")

	// ErrWrongIdentity is returned when a private key is used with a
	// ciphertext addressed to a different identity (detectable only through
	// the validity check, so FullIdent surfaces ErrInvalidCiphertext
	// instead; this error is for explicit mismatches).
	ErrWrongIdentity = errors.New("bf: private key identity mismatch")

	// ErrMessageLength is returned when a plaintext does not match the
	// scheme's fixed message length.
	ErrMessageLength = errors.New("bf: plaintext has wrong length")
)

// PublicParams are the system-wide public parameters published by the PKG:
// the pairing groups, the generator P (inside params) and P_pub = s·P.
//
// PublicParams must be used by pointer (every method has a pointer receiver):
// it lazily caches per-recipient constant-time combs (pairing.GTSecretComb)
// of the GT element ê(P_pub, Q_ID), which depends only on the recipient
// identity, so repeat encryptions to the same identity skip the hash onto the
// curve and the pairing, and raise that element to the sender's r — the
// secret that opens the message — by the same operations for every r; a
// first encryption pairs through the Miller program of P_pub, built once.
type PublicParams struct {
	Pairing *pairing.Params
	PPub    *curve.Point
	// MsgLen is the fixed plaintext length n in bytes.
	MsgLen int

	gtOnce  sync.Once
	gtCache *lru.Cache[string, *pairing.GTSecretComb]

	ppubOnce sync.Once
	ppubPair *pairing.HashPairer // ê(P_pub, H1(·)); nil, with ppubErr set, for a P_pub outside G1 ∖ {O}
	ppubErr  error
}

// maxCachedRecipients bounds the per-identity comb cache; least recently
// encrypted-to identities are evicted first, so a sender spraying unique
// identities cannot grow memory without bound while a working set of hot
// recipients stays cached.
const maxCachedRecipients = 64

// recipientCache returns the LRU of per-recipient GT combs, building it on
// first use (PublicParams values are assembled by struct literal).
func (pub *PublicParams) recipientCache() *lru.Cache[string, *pairing.GTSecretComb] {
	pub.gtOnce.Do(func() {
		pub.gtCache = lru.New[string, *pairing.GTSecretComb](maxCachedRecipients)
	})
	return pub.gtCache
}

// InstrumentRecipientCache exports the per-recipient GT-comb cache's
// counters through reg as the cache="bf_gt_tables" series of the shared
// lru_* families (the label predates the combs and is kept for dashboards).
func (pub *PublicParams) InstrumentRecipientCache(reg *obs.Registry) {
	pub.recipientCache().Instrument(reg, "bf_gt_tables")
}

// RecipientCacheStats reports the hit/miss/eviction counters of the
// per-recipient GT-comb cache.
func (pub *PublicParams) RecipientCacheStats() lru.Stats {
	return pub.recipientCache().Stats()
}

// recipientPairing returns ê(P_pub, Q_ID)^r for the given identity, through
// the recipient's cached GT comb when there is one. Only a recipient without
// one is hashed onto the curve, and then only as the evaluation point of
// P_pub's program (HashIdentityArg: no cofactor clearing).
func (pub *PublicParams) recipientPairing(id string, r *big.Int) (*pairing.GT, error) {
	cache := pub.recipientCache()
	if comb, ok := cache.Get(id); ok {
		return comb.ExpSecret(r), nil
	}
	h, err := HashIdentityArg(pub.Pairing, id)
	if err != nil {
		return nil, err
	}
	pub.ppubOnce.Do(func() { pub.ppubPair, pub.ppubErr = pub.Pairing.NewHashPairer(pub.PPub) })
	if pub.ppubErr != nil {
		return nil, fmt.Errorf("bf: system public key P_pub: %w", pub.ppubErr)
	}
	g, err := pub.ppubPair.Pair(h)
	if err != nil {
		return nil, err
	}
	comb, err := pairing.NewGTSecretComb(g)
	if err != nil {
		// A value outside GT, which a pairing of G1 points never is;
		// exponentiate directly.
		return g.ExpSecret(r)
	}
	cache.Add(id, comb)
	return comb.ExpSecret(r), nil
}

// PrivateKey is an extracted identity key d_ID = s·Q_ID.
//
// A key lazily carries the fixed-argument Miller program for ê(d_ID, ·), so
// every decryption after the first skips all Miller-loop point arithmetic
// (the pairing is symmetric: ê(U, d_ID) = ê(d_ID, U)). Use keys by pointer
// once decryption has run; the cached program makes values non-copyable.
//
//cryptolint:secret
type PrivateKey struct {
	ID string
	D  *curve.Point

	fpOnce sync.Once
	fp     *pairing.FixedPair
}

// pairing returns ê(U, d_ID) through the key's cached fixed-argument
// program, falling back to the generic pairing for degenerate keys (D at
// infinity or off the subgroup — nothing this package produces).
func (k *PrivateKey) pairing(pp *pairing.Params, u *curve.Point) (*pairing.GT, error) {
	k.fpOnce.Do(func() {
		fp, err := pp.NewFixedPair(k.D)
		if err == nil {
			k.fp = fp
		}
	})
	if k.fp != nil {
		return k.fp.Pair(u)
	}
	return pp.Pair(u, k.D)
}

// PKG is the private key generator holding the master key s.
//
//cryptolint:secret
type PKG struct {
	pub    *PublicParams //cryptolint:public (system parameters)
	master *big.Int
}

// Setup runs the PKG setup over the given pairing parameters, choosing a
// random master key s and computing P_pub = s·P.
func Setup(rng io.Reader, pp *pairing.Params, msgLen int) (*PKG, error) {
	if msgLen <= 0 {
		return nil, fmt.Errorf("bf: message length %d must be positive", msgLen)
	}
	s, err := randScalar(rng, pp.Q())
	if err != nil {
		return nil, fmt.Errorf("sample master key: %w", err)
	}
	return SetupWithMaster(pp, s, msgLen)
}

// SetupWithMaster builds a PKG from an explicit master key; the threshold
// dealer and the security-game reductions need this.
//
//cryptolint:vartime (offline PKG setup; the one-time master-key reduction is not an online path)
func SetupWithMaster(pp *pairing.Params, s *big.Int, msgLen int) (*PKG, error) {
	if msgLen <= 0 {
		return nil, fmt.Errorf("bf: message length %d must be positive", msgLen)
	}
	sm := new(big.Int).Mod(s, pp.Q())
	if sm.Sign() == 0 {
		return nil, fmt.Errorf("bf: master key must be nonzero mod q")
	}
	return &PKG{
		pub: &PublicParams{
			Pairing: pp,
			PPub:    pp.GeneratorMul(sm),
			MsgLen:  msgLen,
		},
		master: sm,
	}, nil
}

// Public returns the public system parameters.
func (p *PKG) Public() *PublicParams { return p.pub }

// MasterKey returns a copy of s (needed by the threshold dealer).
func (p *PKG) MasterKey() *big.Int { return new(big.Int).Set(p.master) }

// Extract computes the identity's private key d_ID = s·H1(ID).
func (p *PKG) Extract(id string) (*PrivateKey, error) {
	qid, err := HashIdentity(p.pub.Pairing, id)
	if err != nil {
		return nil, err
	}
	d, err := qid.ScalarMulSecret(p.master)
	if err != nil {
		return nil, err
	}
	return &PrivateKey{ID: id, D: d}, nil
}

// HashIdentity is the H1 oracle: identities → G1. It is for callers that
// multiply or walk Q_ID (key extraction); one that only pairs Q_ID against a
// fixed key wants HashIdentityArg.
func HashIdentity(pp *pairing.Params, id string) (*curve.Point, error) {
	pt, err := pp.Curve().HashToPoint(domainH1, []byte(id))
	if err != nil {
		return nil, fmt.Errorf("hash identity %q: %w", id, err)
	}
	return pt, nil
}

// HashIdentityArg is the H1 oracle for a caller that will only evaluate
// ê(K, Q_ID) for fixed keys K ∈ G1: the same hash without its cofactor
// clearing, in the opaque form a pairing.HashPairer takes (and nothing else
// does), so that pairing comes out as ê(K, HashIdentity(id)) bit for bit.
func HashIdentityArg(pp *pairing.Params, id string) (*pairing.HashArg, error) {
	h, err := pp.HashArg(domainH1, []byte(id))
	if err != nil {
		return nil, fmt.Errorf("hash identity %q: %w", id, err)
	}
	return h, nil
}

// BasicCiphertext is a BasicIdent ciphertext <U, V>.
type BasicCiphertext struct {
	U *curve.Point
	V []byte
}

// EncryptBasic encrypts msg (exactly MsgLen bytes) for the identity under
// BasicIdent.
func (pub *PublicParams) EncryptBasic(rng io.Reader, id string, msg []byte) (*BasicCiphertext, error) {
	if len(msg) != pub.MsgLen {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrMessageLength, len(msg), pub.MsgLen)
	}
	r, err := randScalar(rng, pub.Pairing.Q())
	if err != nil {
		return nil, err
	}
	u := pub.Pairing.GeneratorMul(r)
	g, err := pub.recipientPairing(id, r)
	if err != nil {
		return nil, err
	}
	v := xorBytes(msg, MaskGT(g, pub.MsgLen))
	return &BasicCiphertext{U: u, V: v}, nil
}

// DecryptBasic recovers the plaintext with the identity's full private key:
// m = V ⊕ H2(ê(U, d_ID)).
func (pub *PublicParams) DecryptBasic(key *PrivateKey, c *BasicCiphertext) ([]byte, error) {
	if len(c.V) != pub.MsgLen {
		return nil, fmt.Errorf("%w: ciphertext body %d bytes, want %d", ErrMessageLength, len(c.V), pub.MsgLen)
	}
	g, err := key.pairing(pub.Pairing, c.U)
	if err != nil {
		return nil, err
	}
	return xorBytes(c.V, MaskGT(g, pub.MsgLen)), nil
}

// Ciphertext is a FullIdent ciphertext <U, V, W>.
type Ciphertext struct {
	U *curve.Point
	V []byte // σ ⊕ H2(g^r), |V| = MsgLen
	W []byte // M ⊕ H4(σ), |W| = MsgLen
}

// Encrypt encrypts msg for the identity under FullIdent (IND-ID-CCA).
func (pub *PublicParams) Encrypt(rng io.Reader, id string, msg []byte) (*Ciphertext, error) {
	if len(msg) != pub.MsgLen {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrMessageLength, len(msg), pub.MsgLen)
	}
	sigma := make([]byte, pub.MsgLen)
	if _, err := io.ReadFull(orDefaultRand(rng), sigma); err != nil {
		return nil, fmt.Errorf("sample sigma: %w", err)
	}
	r := DeriveR(sigma, msg, pub.Pairing.Q())
	u := pub.Pairing.GeneratorMul(r)
	g, err := pub.recipientPairing(id, r)
	if err != nil {
		return nil, err
	}
	v := xorBytes(sigma, MaskGT(g, pub.MsgLen))
	w := xorBytes(msg, MaskSigma(sigma, pub.MsgLen))
	return &Ciphertext{U: u, V: v, W: w}, nil
}

// Decrypt recovers the plaintext with the identity's full private key,
// performing the Fujisaki-Okamoto validity check.
func (pub *PublicParams) Decrypt(key *PrivateKey, c *Ciphertext) ([]byte, error) {
	g, err := key.pairing(pub.Pairing, c.U)
	if err != nil {
		return nil, err
	}
	return pub.OpenWithPairingValue(g, c)
}

// OpenWithPairingValue completes FullIdent decryption given the pairing
// value g = ê(U, d_ID), however it was assembled. The paper's mediated IBE
// computes g = g_sem · g_user from the SEM token and the user half and then
// runs exactly this step, so the logic lives here once.
func (pub *PublicParams) OpenWithPairingValue(g *pairing.GT, c *Ciphertext) ([]byte, error) {
	if len(c.V) != pub.MsgLen || len(c.W) != pub.MsgLen {
		return nil, fmt.Errorf("%w: component lengths %d/%d, want %d", ErrMessageLength, len(c.V), len(c.W), pub.MsgLen)
	}
	sigma := xorBytes(c.V, MaskGT(g, pub.MsgLen))
	msg := xorBytes(c.W, MaskSigma(sigma, pub.MsgLen))
	r := DeriveR(sigma, msg, pub.Pairing.Q())
	if !pub.Pairing.GeneratorMul(r).Equal(c.U) {
		return nil, ErrInvalidCiphertext
	}
	return msg, nil
}

// MaskGT is the H2 oracle: it expands a GT element into an n-byte mask.
func MaskGT(g *pairing.GT, n int) []byte {
	return expand(domainH2, g.Bytes(), n)
}

// MaskSigma is the H4 oracle: it expands σ into an n-byte mask.
func MaskSigma(sigma []byte, n int) []byte {
	return expand(domainH4, sigma, n)
}

// DeriveR is the H3 oracle: r = H3(σ, M) ∈ [1, q).
//
//cryptolint:vartime (big.Int hash-to-scalar reduction; the digest width hides the value and the bias is negligible)
func DeriveR(sigma, msg []byte, q *big.Int) *big.Int {
	payload := make([]byte, 0, 8+len(sigma)+len(msg))
	var lenPrefix [8]byte
	binary.BigEndian.PutUint64(lenPrefix[:], uint64(len(sigma)))
	payload = append(payload, lenPrefix[:]...)
	payload = append(payload, sigma...)
	payload = append(payload, msg...)
	// Expand to |q| + 128 bits and reduce; the bias is negligible.
	nbytes := (q.BitLen()+7)/8 + 16
	digest := expand(domainH3, payload, nbytes)
	r := new(big.Int).SetBytes(digest)
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	r.Mod(r, qm1)
	return r.Add(r, big.NewInt(1))
}

// expand is counter-mode SHA-256 expansion with domain separation.
func expand(domain string, seed []byte, n int) []byte {
	out := make([]byte, 0, ((n+31)/32)*32)
	var block uint32
	for len(out) < n {
		h := sha256.New()
		var be [4]byte
		binary.BigEndian.PutUint32(be[:], block)
		h.Write([]byte(domain))
		h.Write(be[:])
		h.Write(seed)
		out = h.Sum(out)
		block++
	}
	return out[:n]
}

func xorBytes(a, b []byte) []byte {
	out := make([]byte, len(a))
	subtle.XORBytes(out, a, b)
	return out
}

//cryptolint:vartime (rejection-free big.Int scalar sampling; rand.Int is variable-time by nature)
func randScalar(rng io.Reader, q *big.Int) (*big.Int, error) {
	r, err := rand.Int(orDefaultRand(rng), new(big.Int).Sub(q, big.NewInt(1)))
	if err != nil {
		return nil, err
	}
	return r.Add(r, big.NewInt(1)), nil
}

func orDefaultRand(rng io.Reader) io.Reader {
	if rng == nil {
		return rand.Reader
	}
	return rng
}

// Marshal serializes a BasicIdent ciphertext as U ‖ V.
func (c *BasicCiphertext) Marshal() []byte {
	u := c.U.Marshal()
	out := make([]byte, 0, len(u)+len(c.V))
	out = append(out, u...)
	out = append(out, c.V...)
	return out
}

// UnmarshalBasicCiphertext parses a BasicIdent ciphertext serialized by
// BasicCiphertext.Marshal.
func (pub *PublicParams) UnmarshalBasicCiphertext(data []byte) (*BasicCiphertext, error) {
	ptLen := 1 + pub.Pairing.Curve().CoordinateSize()
	want := ptLen + pub.MsgLen
	if len(data) != want {
		return nil, fmt.Errorf("bf: basic ciphertext must be %d bytes, got %d", want, len(data))
	}
	u, err := pub.Pairing.Curve().Unmarshal(data[:ptLen])
	if err != nil {
		return nil, fmt.Errorf("bf: basic ciphertext point: %w", err)
	}
	return &BasicCiphertext{U: u, V: bytes.Clone(data[ptLen:])}, nil
}

// Marshal serializes the ciphertext as U ‖ V ‖ W (compressed point plus the
// two fixed-width bodies).
func (c *Ciphertext) Marshal() []byte {
	u := c.U.Marshal()
	out := make([]byte, 0, len(u)+len(c.V)+len(c.W))
	out = append(out, u...)
	out = append(out, c.V...)
	out = append(out, c.W...)
	return out
}

// UnmarshalCiphertext parses a FullIdent ciphertext serialized by Marshal.
func (pub *PublicParams) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	ptLen := 1 + pub.Pairing.Curve().CoordinateSize()
	want := ptLen + 2*pub.MsgLen
	if len(data) != want {
		return nil, fmt.Errorf("bf: ciphertext must be %d bytes, got %d", want, len(data))
	}
	u, err := pub.Pairing.Curve().Unmarshal(data[:ptLen])
	if err != nil {
		return nil, fmt.Errorf("bf: ciphertext point: %w", err)
	}
	return &Ciphertext{
		U: u,
		V: bytes.Clone(data[ptLen : ptLen+pub.MsgLen]),
		W: bytes.Clone(data[ptLen+pub.MsgLen:]),
	}, nil
}

// Marshal serializes the private key as the identity length-prefix, the
// identity and the compressed point.
func (k *PrivateKey) Marshal() []byte {
	id := []byte(k.ID)
	pt := k.D.Marshal()
	out := make([]byte, 0, 4+len(id)+len(pt))
	var be [4]byte
	binary.BigEndian.PutUint32(be[:], uint32(len(id)))
	out = append(out, be[:]...)
	out = append(out, id...)
	out = append(out, pt...)
	return out
}

// UnmarshalPrivateKey parses a private key serialized by Marshal.
func (pub *PublicParams) UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("bf: private key too short")
	}
	idLen := binary.BigEndian.Uint32(data[:4])
	ptLen := 1 + pub.Pairing.Curve().CoordinateSize()
	if uint64(len(data)) != 4+uint64(idLen)+uint64(ptLen) {
		return nil, fmt.Errorf("bf: private key length mismatch")
	}
	id := string(data[4 : 4+idLen])
	d, err := pub.Pairing.Curve().Unmarshal(data[4+idLen:])
	if err != nil {
		return nil, fmt.Errorf("bf: private key point: %w", err)
	}
	return &PrivateKey{ID: id, D: d}, nil
}

package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bf"
	"repro/internal/curve"
	"repro/internal/lru"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/pairing"
)

// Mediated Boneh-Franklin IBE (Section 4 of the paper).
//
// The PKG computes the FullIdent key d_ID = s·Q_ID, then splits it
// additively in G1:
//
//	d_ID = d_ID,user + d_ID,sem,   d_ID,user ∈R G1.
//
// Encryption is unchanged FullIdent, so the SEM architecture is transparent
// to senders. To decrypt <U, V, W>, the user asks the SEM for the
// message-specific token g_sem = ê(U, d_ID,sem), computes
// g_user = ê(U, d_ID,user), multiplies g = g_sem·g_user = ê(P_pub, Q_ID)^r
// and finishes FullIdent decryption (including the validity check that makes
// tokens single-use). The SEM refuses tokens for revoked identities —
// instant, fine-grained revocation with no key reissue, unlike the
// validity-period workaround of [4]/[3].

// ErrTokenMismatch is returned when a SEM token does not correspond to the
// ciphertext being decrypted (the FullIdent validity check fails).
var ErrTokenMismatch = errors.New("core: SEM token does not open this ciphertext")

// UserKeyHalf is the user's piece d_ID,user of an identity key.
//
// The half lazily carries the fixed-argument Miller program for
// ê(d_ID,user, ·), so every decryption after the first skips the Miller
// loop's point arithmetic (ê is symmetric). Use halves by pointer once
// decryption has run; the cached program makes values non-copyable.
//
//cryptolint:secret
type UserKeyHalf struct {
	ID string
	D  *curve.Point

	fpOnce sync.Once
	fp     *pairing.FixedPair
}

// pairing returns ê(d_ID,user, u) through the half's cached fixed-argument
// program, falling back to the generic pairing for degenerate halves. Like
// the SEM's side it walks the key and evaluates at u, so a cofactor
// component of u contributes nothing to g — and FullIdent's validity check
// (r·P = U) then refuses the ciphertext.
func (k *UserKeyHalf) pairing(pp *pairing.Params, u *curve.Point) (*pairing.GT, error) {
	k.fpOnce.Do(func() {
		fp, err := pp.NewFixedPair(k.D)
		if err == nil {
			k.fp = fp
		}
	})
	if k.fp != nil {
		return k.fp.Pair(u)
	}
	return pp.Pair(k.D, u)
}

// SEMKeyHalf is the mediator's piece d_ID,sem of an identity key.
//
//cryptolint:secret
type SEMKeyHalf struct {
	ID string
	D  *curve.Point
}

// MediatedPKG wraps the Boneh-Franklin PKG with the key-splitting Keygen of
// Section 4. The PKG can go offline once every user's halves are delivered;
// only the SEM stays online.
type MediatedPKG struct {
	pkg *bf.PKG
}

// NewMediatedPKG runs Setup: pairing groups, master key s, P_pub = s·P.
func NewMediatedPKG(rng io.Reader, pp *pairing.Params, msgLen int) (*MediatedPKG, error) {
	pkg, err := bf.Setup(rng, pp, msgLen)
	if err != nil {
		return nil, fmt.Errorf("mediated IBE setup: %w", err)
	}
	return &MediatedPKG{pkg: pkg}, nil
}

// Public returns the system parameters senders use. Encryption is plain
// FullIdent: Public().Encrypt(rng, id, msg).
func (m *MediatedPKG) Public() *bf.PublicParams { return m.pkg.Public() }

// SplitExtract derives d_ID = s·H1(ID), draws d_ID,user uniformly from G1
// and returns the two halves. The PKG retains nothing.
func (m *MediatedPKG) SplitExtract(rng io.Reader, id string) (*UserKeyHalf, *SEMKeyHalf, error) {
	full, err := m.pkg.Extract(id)
	if err != nil {
		return nil, nil, err
	}
	pp := m.pkg.Public().Pairing
	r, err := mathx.RandomFieldElement(orRand(rng), pp.Q())
	if err != nil {
		return nil, nil, fmt.Errorf("sample user half: %w", err)
	}
	dUser := pp.GeneratorMul(r)
	dSem := full.D.Add(dUser.Neg())
	return &UserKeyHalf{ID: id, D: dUser}, &SEMKeyHalf{ID: id, D: dSem}, nil
}

// IBESEM is the mediator's half of the mediated IBE: it stores the SEM key
// halves, enforces revocation and issues decryption tokens. Safe for
// concurrent use.
//
// Token issuance is the SEM's entire hot path — every decryption by every
// user lands here — so the SEM keeps a pairerCache of fixed-argument Miller
// programs: pairerCapacity of them, for the identities asked most often of
// late; every other identity's token is the plain pairing, the same bits.
// Revoking or re-registering an identity drops its program.
type IBESEM struct {
	Mediator[*SEMKeyHalf]
	pub     *bf.PublicParams
	pairers pairerCache
}

// NewIBESEM constructs a SEM bound to the system parameters and a (possibly
// shared) revocation registry, whose every revoke and reinstatement drops
// the identity's pairing program (newPairerCache).
func NewIBESEM(pub *bf.PublicParams, reg *Registry) *IBESEM {
	return &IBESEM{
		Mediator: newMediator[*SEMKeyHalf](reg),
		pub:      pub,
		pairers:  newPairerCache(reg),
	}
}

// Register installs an identity's SEM key half, invalidating any pairing
// program precomputed for a previously registered half.
func (s *IBESEM) Register(half *SEMKeyHalf) {
	s.put(half.ID, half)
	s.pairers.Remove(half.ID)
}

// InstrumentPairerCache exports the precomputation cache's hit/miss/
// eviction/rejection counters and size through reg as the cache="sem_pairers"
// series of the shared lru_* families.
func (s *IBESEM) InstrumentPairerCache(reg *obs.Registry) {
	s.pairers.Instrument(reg, "sem_pairers")
}

// PairerCacheStats reports the hit/miss/eviction counters of the SEM's
// precomputed-pairing cache, and how many of the misses were refused a
// program (answered by the plain pairing).
func (s *IBESEM) PairerCacheStats() lru.Stats { return s.pairers.Stats() }

// PairerCacheLen returns the number of identities with a live precomputed
// pairing program.
func (s *IBESEM) PairerCacheLen() int { return s.pairers.Len() }

// Token implements the SEM side of the decryption protocol: check
// revocation, then return g_sem = ê(d_ID,sem, U) (= ê(U, d_ID,sem); ê is
// symmetric on G1).
//
// The token is bound to U = H3(σ, M)·P, so it opens exactly one ciphertext;
// it reveals nothing about d_ID,sem (it is a random-looking GT element) and
// is useless to anyone but the key-half holder.
//
// What is checked on U: non-nil and not the identity. What is not: order-q
// subgroup membership. U is only ever the pairing's evaluation point — every
// pairing below walks the Miller loop of the SEM's own half d and evaluates
// its lines at φ(U) — and the reduced Tate pairing's second argument lives
// in E/qE, so for U = U_q + T with T of cofactor order the token is bit for
// bit ê(d, U_q): what an honest query for U_q gets, always in GT (DESIGN §7).
// The argument needs d in the order-q subgroup and d as the FIRST argument;
// U's type, curve.EvalArg, allows nothing else.
func (s *IBESEM) Token(id string, u curve.EvalArg) (*pairing.GT, error) {
	half, err := s.half(id)
	if err != nil {
		return nil, err
	}
	if u == nil || u.IsInfinity() {
		return nil, fmt.Errorf("core: ciphertext point U is not a valid pairing argument")
	}
	// Served from the per-identity Miller program, or by the plain pairing
	// for an identity the full cache did not admit. A concurrent revoke can
	// race the cache insert and leave an entry behind, but it can never be
	// *served* for a revoked identity — half checks revocation on every call —
	// and the entry is keyed to this exact half, so it is correct again if
	// the identity is unrevoked.
	return s.pairers.pair(s.pub.Pairing, id, half.D, u)
}

// TokenX is Token for a U the SEM has as its abscissa alone
// (wire.UnmarshalPairingX): the same revocation check, program cache and
// refusals, and the token g_sem = X + (Y·y_U)·i as the pairing.GTX (X, Y)
// that the requester, who holds y_U, resolves. Computed in F_p[j]/(j² + s),
// s = x_U³ + x_U, a field isomorphic to F_p² (DESIGN §7): the SEM never
// needs y_U and takes no square root.
func (s *IBESEM) TokenX(id string, u curve.EvalX) (pairing.GTX, error) {
	half, err := s.half(id)
	if err != nil {
		return pairing.GTX{}, err
	}
	if u.IsInfinity() {
		return pairing.GTX{}, fmt.Errorf("core: ciphertext point U is not a valid pairing argument")
	}
	g, _, err := s.pairers.pairX(s.pub.Pairing, id, half.D, u)
	return g, err
}

// TokenFor is Token for a U the caller holds as a G1 point: the SEM step
// DecryptIBE asks of an in-process SEM, as the networked client's IBEToken
// is over the wire.
func (s *IBESEM) TokenFor(id string, u *curve.Point) (*pairing.GT, error) { return s.Token(id, u) }

// UserDecrypt is the user's side of mediated-IBE decryption, wherever the
// SEM token came from: g = g_sem · ê(U, d_ID,user), then the FullIdent
// opening, whose validity check (r·P = U) refuses a token that is not
// ê(U, d_ID,sem) — nothing unchecked is returned.
func UserDecrypt(pub *bf.PublicParams, key *UserKeyHalf, c *bf.Ciphertext, token *pairing.GT) ([]byte, error) {
	gUser, err := key.pairing(pub.Pairing, c.U)
	if err != nil {
		return nil, err
	}
	g := token.Mul(gUser)
	msg, err := pub.OpenWithPairingValue(g, c)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTokenMismatch, err)
	}
	return msg, nil
}

// DecryptIBE is the two-party decryption, written once for both places the
// SEM runs: ask token — an in-process SEM's TokenFor, or the networked
// client's IBEToken — for g_sem, then complete with UserDecrypt.
func DecryptIBE(pub *bf.PublicParams, key *UserKeyHalf, c *bf.Ciphertext, token func(id string, u *curve.Point) (*pairing.GT, error)) ([]byte, error) {
	g, err := token(key.ID, c.U)
	if err != nil {
		return nil, err
	}
	return UserDecrypt(pub, key, c, g)
}

// RecombineKey reassembles the full FullIdent key from both halves. Only
// the collusion experiments use it: it is exactly what a user who corrupts
// the SEM can do — and the point of Theorem 4.1 is that this yields *one*
// identity's key, never other users' plaintext.
func RecombineKey(user *UserKeyHalf, sem *SEMKeyHalf) (*bf.PrivateKey, error) {
	if user.ID != sem.ID {
		return nil, fmt.Errorf("core: halves belong to different identities (%q, %q)", user.ID, sem.ID)
	}
	return &bf.PrivateKey{ID: user.ID, D: user.D.Add(sem.D)}, nil
}

func orRand(rng io.Reader) io.Reader {
	if rng == nil {
		return rand.Reader
	}
	return rng
}

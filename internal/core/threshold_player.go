package core

import (
	"fmt"
	"io"

	"repro/internal/curve"
	"repro/internal/obs"
)

// ThresholdPlayer is one decryption server's half of the threshold IBE: it
// holds player i's verified identity-key shares and answers a ciphertext's U
// — its abscissa, all the player reads of it — with the decryption share
// ê(U, d_IDi) and its robustness proof, in U's ring for the recombiner to
// resolve. It is a SEM like IBESEM — a Mediator whose key halves are the
// shares, so a revoked identity gets no share — and a share is that SEM's
// token for the key d_IDi: ê(d_IDi, U), replayed from the same bounded cache
// of per-identity Miller programs. Safe for concurrent use.
type ThresholdPlayer struct {
	Mediator[*KeyShare]
	params  *ThresholdParams
	index   int
	pairers pairerCache

	// misbehave, when set, corrupts outgoing shares — the test hook for
	// byzantine behaviour.
	misbehave func(*ShareX) *ShareX
}

// NewThresholdPlayer creates player index's share-serving state, bound to a
// (possibly shared) revocation registry as NewIBESEM is.
func NewThresholdPlayer(params *ThresholdParams, index int, reg *Registry) (*ThresholdPlayer, error) {
	if index < 1 || index > params.N {
		return nil, fmt.Errorf("core: player index %d out of range 1..%d", index, params.N)
	}
	return &ThresholdPlayer{Mediator: newMediator[*KeyShare](reg), params: params, index: index, pairers: newPairerCache(reg)}, nil
}

// Install registers the player's key share for an identity after verifying
// it, as the paper's Keygen demands — which also computes the share's
// per-identity pairing constant once, ahead of the first request — and
// drops the Miller program of any share it replaces.
func (p *ThresholdPlayer) Install(share *KeyShare) error {
	if share.Index != p.index {
		return fmt.Errorf("core: share for player %d installed on player %d", share.Index, p.index)
	}
	if err := p.params.VerifyKeyShare(share); err != nil {
		return fmt.Errorf("core: refusing bad key share: %w", err)
	}
	p.put(share.ID, share)
	p.pairers.Remove(share.ID)
	return nil
}

// SetMisbehaviour installs a share-corrupting hook (tests only; set it
// before requests arrive).
func (p *ThresholdPlayer) SetMisbehaviour(f func(*ShareX) *ShareX) {
	p.misbehave = f
}

// InstrumentPairerCache exports the Miller-program cache's hit/miss/
// eviction/rejection counters and size through reg as the cache="player_pairers"
// series of the shared lru_* families.
func (p *ThresholdPlayer) InstrumentPairerCache(reg *obs.Registry) {
	p.pairers.Instrument(reg, "player_pairers")
}

// Share returns the player's decryption share of the ciphertext component
// whose abscissa is u for id, with its proof, as the player holds them: G
// and W2 in u's ring (ShareX; the recombiner resolves them with y_U). A
// revoked identity is refused with ErrRevoked and one the player holds no
// share for with ErrUnknownIdentity.
//
// What is checked on u: that it is not the zero EvalX — its decoder
// (wire.UnmarshalPairingX) has already refused O, (0, 0) and an x whose
// x³ + x is not a square. u is only ever the evaluation point of a pairing
// that walks the player's own share, and the proof is made of powers of that
// pairing's value and a multiple of the share, so for U = U_q + T with T of
// cofactor order the answer is, bit for bit, a share and a valid proof for
// U_q (DESIGN §7). A key share outside G1 is refused on its first request
// (curve.ErrNotInSubgroup) and never walked.
func (p *ThresholdPlayer) Share(id string, u curve.EvalX) (*ShareX, error) {
	return p.share(nil, id, u)
}

// share is Share with the proof nonce drawn from rng (nil: crypto/rand).
func (p *ThresholdPlayer) share(rng io.Reader, id string, u curve.EvalX) (*ShareX, error) {
	key, err := p.half(id)
	if err != nil {
		return nil, err
	}
	if u.IsInfinity() {
		return nil, fmt.Errorf("core: ciphertext point U is not a valid pairing argument")
	}
	g, entry, err := p.pairers.pairX(p.params.Public.Pairing, id, key.D, u)
	if err != nil {
		return nil, fmt.Errorf("core: player %d: %w", p.index, err)
	}
	sx, err := p.params.proveShare(rng, key, g, u, entry)
	if err != nil {
		return nil, err
	}
	if p.misbehave != nil {
		sx = p.misbehave(sx)
	}
	return sx, nil
}

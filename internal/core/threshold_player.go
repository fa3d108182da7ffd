package core

import (
	"fmt"
	"io"

	"repro/internal/curve"
	"repro/internal/obs"
)

// ThresholdPlayer is one decryption server's half of the threshold IBE: it
// holds player i's verified identity-key shares and answers a ciphertext's U
// with the decryption share ê(U, d_IDi) and its robustness proof. It is the
// backend a network service serves shares from, in the shape of IBESEM —
// and a share is that SEM's token for the key d_IDi: ê(d_IDi, U), replayed
// from the same bounded cache of per-identity Miller programs. Safe for
// concurrent use.
type ThresholdPlayer struct {
	params  *ThresholdParams
	index   int
	keys    *keyStore[*KeyShare]
	pairers pairerCache

	// misbehave, when set, corrupts outgoing shares — the test hook for
	// byzantine behaviour.
	misbehave func(*DecryptionShare) *DecryptionShare
}

// NewThresholdPlayer creates player index's share-serving state.
func NewThresholdPlayer(params *ThresholdParams, index int) (*ThresholdPlayer, error) {
	if index < 1 || index > params.N {
		return nil, fmt.Errorf("core: player index %d out of range 1..%d", index, params.N)
	}
	return &ThresholdPlayer{params: params, index: index, keys: newKeyStore[*KeyShare](), pairers: newPairerCache()}, nil
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
	p.keys.put(share.ID, share)
	p.pairers.Remove(share.ID)
	return nil
}

// SetMisbehaviour installs a share-corrupting hook (tests only; set it
// before requests arrive).
func (p *ThresholdPlayer) SetMisbehaviour(f func(*DecryptionShare) *DecryptionShare) {
	p.misbehave = f
}

// InstrumentPairerCache exports the Miller-program cache's hit/miss/
// eviction/rejection counters and size through reg as the cache="player_pairers"
// series of the shared lru_* families.
func (p *ThresholdPlayer) InstrumentPairerCache(reg *obs.Registry) {
	p.pairers.Instrument(reg, "player_pairers")
}

// Share returns the player's decryption share of the ciphertext component
// u for id, with its proof.
//
// What is checked on u: non-nil and not the identity — IBESEM.Token's
// contract, for its reason. u is only ever the evaluation point of a pairing
// that walks the player's own share, and the proof is made of powers of that
// pairing's value and a multiple of the share, so for u = U_q + T with T of
// cofactor order the answer is, bit for bit, a share and a valid proof for
// U_q (DESIGN §7). Nothing here may multiply, add, marshal or walk u. A key
// share outside G1 is refused on its first request (curve.ErrNotInSubgroup)
// and never walked.
func (p *ThresholdPlayer) Share(id string, u *curve.Point) (*DecryptionShare, error) {
	return p.share(nil, id, u)
}

// share is Share with the proof nonce drawn from rng (nil: crypto/rand).
func (p *ThresholdPlayer) share(rng io.Reader, id string, u *curve.Point) (*DecryptionShare, error) {
	key, ok := p.keys.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	if u == nil || u.IsInfinity() {
		return nil, fmt.Errorf("core: ciphertext point U is not a valid pairing argument")
	}
	g, entry, err := p.pairers.pair(p.params.Public.Pairing, id, key.D, u)
	if err != nil {
		return nil, fmt.Errorf("core: player %d: %w", p.index, err)
	}
	ds, err := p.params.proveShare(rng, key, g, entry)
	if err != nil {
		return nil, err
	}
	if p.misbehave != nil {
		ds = p.misbehave(ds)
	}
	return ds, nil
}

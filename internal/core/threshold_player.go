package core

import (
	"fmt"

	"repro/internal/curve"
)

// ThresholdPlayer is one decryption server's half of the threshold IBE: it
// holds player i's verified identity-key shares and answers a ciphertext's U
// with the decryption share ê(U, d_IDi) and its robustness proof. It is the
// backend a network service serves shares from, in the shape of IBESEM.
// Safe for concurrent use.
type ThresholdPlayer struct {
	params *ThresholdParams
	index  int
	keys   *keyStore[*KeyShare]

	// misbehave, when set, corrupts outgoing shares — the test hook for
	// byzantine behaviour.
	misbehave func(*DecryptionShare) *DecryptionShare
}

// NewThresholdPlayer creates player index's share-serving state.
func NewThresholdPlayer(params *ThresholdParams, index int) (*ThresholdPlayer, error) {
	if index < 1 || index > params.N {
		return nil, fmt.Errorf("core: player index %d out of range 1..%d", index, params.N)
	}
	return &ThresholdPlayer{params: params, index: index, keys: newKeyStore[*KeyShare]()}, nil
}

// Install registers the player's key share for an identity after verifying
// it, as the paper's Keygen demands — which also computes the share's
// per-identity pairing constant once, ahead of the first request.
func (p *ThresholdPlayer) Install(share *KeyShare) error {
	if share.Index != p.index {
		return fmt.Errorf("core: share for player %d installed on player %d", share.Index, p.index)
	}
	if err := p.params.VerifyKeyShare(share); err != nil {
		return fmt.Errorf("core: refusing bad key share: %w", err)
	}
	p.keys.put(share.ID, share)
	return nil
}

// SetMisbehaviour installs a share-corrupting hook (tests only; set it
// before requests arrive).
func (p *ThresholdPlayer) SetMisbehaviour(f func(*DecryptionShare) *DecryptionShare) {
	p.misbehave = f
}

// Share returns the player's decryption share of the ciphertext component
// u for id, with its proof.
func (p *ThresholdPlayer) Share(id string, u *curve.Point) (*DecryptionShare, error) {
	key, ok := p.keys.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	ds, err := p.params.ComputeShareWithProof(nil, key, u)
	if err != nil {
		return nil, err
	}
	if p.misbehave != nil {
		ds = p.misbehave(ds)
	}
	return ds, nil
}

// Package core implements the paper's contribution: the SEM (security
// mediator) architecture applied to pairing based cryptosystems —
//
//   - the (t, n) threshold Boneh-Franklin IBE of Section 3, with share
//     verification, robustness NIZK proofs and dishonest-share recovery;
//   - the mediated Boneh-Franklin IBE of Section 4 (2-out-of-2 split of
//     FullIdent between user and SEM, instant revocation);
//   - the mediated GDH signature of Section 5 (additive split of a BLS key).
//
// The common revocation semantics live in Registry: revoking an identity
// makes the SEM refuse to produce its half of any operation, which removes
// the user's key privileges *instantly* — no CRLs, no key reissue, and
// senders/verifiers never consult revocation state at all.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

var (
	// ErrRevoked is returned by every SEM operation on a revoked identity.
	ErrRevoked = errors.New("core: identity is revoked")

	// ErrUnknownIdentity is returned when the SEM holds no key half for the
	// identity.
	ErrUnknownIdentity = errors.New("core: unknown identity")
)

// RevocationEntry records why and when an identity was revoked.
type RevocationEntry struct {
	ID     string    `json:"id"`
	Reason string    `json:"reason"`
	When   time.Time `json:"when"`
}

// Registry is the SEM's revocation list. It is shared by all mediated
// schemes a SEM serves, so a single Revoke removes the identity's
// decryption and signing capabilities simultaneously. Safe for concurrent
// use; the zero value is not usable — construct with NewRegistry.
type Registry struct {
	mu        sync.RWMutex
	revoked   map[string]RevocationEntry
	listeners []func(id string)
}

// NewRegistry returns an empty revocation registry.
func NewRegistry() *Registry {
	return &Registry{revoked: make(map[string]RevocationEntry)}
}

// Revoke marks the identity revoked. Revoking an already-revoked identity
// updates the reason and timestamp. Registered OnChange listeners run
// synchronously before Revoke returns, so derived per-identity state (e.g.
// a SEM's precomputed pairing programs) is gone by the time the caller
// observes the revocation.
func (r *Registry) Revoke(id, reason string) {
	r.revoke(RevocationEntry{ID: id, Reason: reason, When: time.Now()})
}

// revoke records e as its identity's entry — Revoke's stamp, or a journal
// record's own — and runs the OnChange listeners.
func (r *Registry) revoke(e RevocationEntry) {
	r.mu.Lock()
	r.revoked[e.ID] = e
	r.mu.Unlock()
	r.changed(e.ID)
}

// Unrevoke restores the identity. It reports whether the identity was
// revoked; only then do the OnChange listeners run, as for Revoke.
func (r *Registry) Unrevoke(id string) bool {
	r.mu.Lock()
	_, ok := r.revoked[id]
	delete(r.revoked, id)
	r.mu.Unlock()
	if ok {
		r.changed(id)
	}
	return ok
}

// OnChange registers a listener invoked synchronously with the identity on
// every Revoke and on every reinstatement, by Unrevoke or a snapshot
// install. Both directions matter: state derived while an identity sat on
// the revocation list would otherwise survive reinstatement, and
// replication replay, which drives the registry through both transitions,
// could leave followers with derived state the leader already dropped.
// Listeners must be registered before the registry is shared and must not
// block.
func (r *Registry) OnChange(fn func(id string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.listeners = append(r.listeners, fn)
}

// changed runs the OnChange listeners for id. They run outside the lock:
// they may call back into the registry, and the new state is already in
// place, so nothing can be served for a revoked id during the cleanup.
func (r *Registry) changed(ids ...string) {
	r.mu.RLock()
	listeners := r.listeners
	r.mu.RUnlock()
	for _, id := range ids {
		for _, fn := range listeners {
			fn(id)
		}
	}
}

// resetTo replaces the whole revocation set with entries (a replication
// snapshot install). Listeners see each identity of the symmetric
// difference against the current state — the transitions they would have
// seen had the individual mutations been applied one by one — after the new
// state is fully in place.
func (r *Registry) resetTo(entries []RevocationEntry) {
	next := make(map[string]RevocationEntry, len(entries))
	for _, e := range entries {
		next[e.ID] = e //cryptolint:public (revocation-set keys are identity strings; the list is served verbatim by ListRevoked)
	}
	r.mu.Lock()
	var flipped []string
	for id := range r.revoked {
		if _, ok := next[id]; !ok { //cryptolint:public (revocation-set diff over identity strings; set membership is the registry's product)
			flipped = append(flipped, id)
		}
	}
	for id := range next {
		if _, ok := r.revoked[id]; !ok {
			flipped = append(flipped, id)
		}
	}
	r.revoked = next
	r.mu.Unlock()
	r.changed(flipped...)
}

// IsRevoked reports whether the identity is revoked.
func (r *Registry) IsRevoked(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.revoked[id]
	return ok
}

// Check returns ErrRevoked (wrapped with the entry's reason) when the
// identity is revoked, nil otherwise. Every SEM operation calls this first —
// the paper's "1. Check if the identity is revoked. If it is, return Error."
func (r *Registry) Check(id string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, ok := r.revoked[id]; ok {
		return fmt.Errorf("%w: %s (%s)", ErrRevoked, id, e.Reason)
	}
	return nil
}

// Entries returns a snapshot of all revocations.
func (r *Registry) Entries() []RevocationEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]RevocationEntry, 0, len(r.revoked))
	for _, e := range r.revoked {
		out = append(out, e)
	}
	return out
}

package core

import (
	"fmt"
	"sync"
)

// Mediator is the step every SEM shares, whatever its scheme: it holds the
// revocation registry and the identities' key halves, and hands a half out
// only to an identity that is enrolled and not revoked. Each scheme's SEM
// embeds one and reads its keys through half alone, so revocation is
// enforced here, once, and a new mediated scheme cannot leave it out.
type Mediator[K any] struct {
	reg  *Registry
	keys *keyStore[K]
}

func newMediator[K any](reg *Registry) Mediator[K] {
	return Mediator[K]{reg: reg, keys: newKeyStore[K]()}
}

// Registry exposes the revocation registry (admin interface).
func (m *Mediator[K]) Registry() *Registry { return m.reg }

// half is the SEM's check: revocation first, then the key lookup.
func (m *Mediator[K]) half(id string) (K, error) {
	var none K
	if err := m.reg.Check(id); err != nil {
		return none, err
	}
	k, ok := m.keys.get(id)
	if !ok {
		return none, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	return k, nil
}

// keyStore is a small concurrency-safe string-keyed map of per-identity key
// halves (a Mediator's, and a ThresholdPlayer's shares).
type keyStore[T any] struct {
	mu sync.RWMutex
	m  map[string]T
}

func newKeyStore[T any]() *keyStore[T] {
	return &keyStore[T]{m: make(map[string]T)}
}

func (s *keyStore[T]) put(id string, v T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[id] = v
}

func (s *keyStore[T]) get(id string) (T, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[id]
	return v, ok
}

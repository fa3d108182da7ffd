package core

import (
	"fmt"
	"sync"
)

// Mediator is the step every SEM shares, whatever its scheme — a threshold
// player included: it holds the revocation registry and the identities' key
// halves, and hands a half out only to an identity that is enrolled and not
// revoked. Each scheme's SEM embeds one and reads its keys through half
// alone, so revocation is enforced here, once, and a new mediated scheme
// cannot leave it out.
type Mediator[K any] struct {
	reg  *Registry
	mu   sync.RWMutex
	keys map[string]K
}

func newMediator[K any](reg *Registry) Mediator[K] {
	return Mediator[K]{reg: reg, keys: make(map[string]K)}
}

// Registry exposes the revocation registry (admin interface).
func (m *Mediator[K]) Registry() *Registry { return m.reg }

// put installs id's key half, replacing any earlier one.
func (m *Mediator[K]) put(id string, k K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keys[id] = k
}

// half is the SEM's check: revocation first, then the key lookup.
func (m *Mediator[K]) half(id string) (K, error) {
	var none K
	if err := m.reg.Check(id); err != nil {
		return none, err
	}
	m.mu.RLock()
	k, ok := m.keys[id]
	m.mu.RUnlock()
	if !ok {
		return none, fmt.Errorf("%w: %s", ErrUnknownIdentity, id)
	}
	return k, nil
}

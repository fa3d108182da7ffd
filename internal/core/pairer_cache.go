package core

import (
	"sync"

	"repro/internal/curve"
	"repro/internal/lru"
	"repro/internal/pairing"
)

// pairerCapacity bounds a server's per-identity precomputation cache; the
// working set of actively decrypting identities stays warm while idle ones
// age out. A program is two field elements per Miller line — ≈ 45 KB at
// paper size, so a full cache is ≈ 11 MB per SEM or threshold player.
const pairerCapacity = 256

// pairerCache is the bounded, build-once cache of fixed-argument Miller
// programs ê(d, ·) for the keys a server holds, one per recently served
// identity: after the first request for an identity, ê(d, U) costs a
// line-program replay instead of a full Miller loop. IBESEM keeps one for
// its key halves and ThresholdPlayer one for its key shares — a decryption
// share is the SEM's token for a different key.
type pairerCache struct {
	*lru.Cache[string, *keyPairer]
}

func newPairerCache() pairerCache {
	return pairerCache{lru.New[string, *keyPairer](pairerCapacity)}
}

// keyPairer binds a precomputed pairing program to the exact key it was
// derived from, so a cached program can never serve a re-installed
// identity's stale key. The entry goes into the cache before its program
// exists and build makes the program once: connections missing together on
// one identity all find the same entry and share the one NewFixedPair.
type keyPairer struct {
	d     *curve.Point
	build sync.Once
	fp    *pairing.FixedPair
	err   error // NewFixedPair's refusal of d, answered to every request
}

// pair returns ê(d, u) for the key d held under id — d walked, u only the
// evaluation point — from the identity's cached program when it was built
// for this exact d, building (or replacing) it otherwise. A d outside
// G1 ∖ {O} is never walked: NewFixedPair refuses it
// (curve.ErrNotInSubgroup) and so does every request.
//
// The key must also be dropped (Remove) when it is replaced or withdrawn;
// the d.Equal guard is what makes a racing insert harmless.
func (c pairerCache) pair(pp *pairing.Params, id string, d, u *curve.Point) (*pairing.GT, error) {
	p, hit := c.GetOrAdd(id, func() *keyPairer { return &keyPairer{d: d} })
	if hit && !p.d.Equal(d) {
		p = &keyPairer{d: d}
		c.Add(id, p)
	}
	p.build.Do(func() { p.fp, p.err = pp.NewFixedPair(p.d) })
	if p.err != nil {
		return nil, p.err
	}
	return p.fp.Pair(u)
}

package core

import (
	"hash/maphash"
	"math"
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
// programs ê(d, ·) for the keys a server holds. A hit is a line-program
// replay instead of a Miller loop; a build costs about a Miller loop on top
// of its first replay, so it pays only if the identity is asked again before
// the program is evicted. While there is room every first request builds; a
// miss on a full cache builds, and evicts the least recently used program,
// only for an identity asked more often of late than that victim (freq), and
// is otherwise answered by the plain pairing — the same bits, a fifth less
// work than a program that dies unused. IBESEM keeps one cache for its key
// halves and ThresholdPlayer one for its key shares (a decryption share is
// the SEM's token for a different key).
type pairerCache struct {
	*lru.Cache[string, *keyPairer]
	freq *sketch
}

func newPairerCache() pairerCache {
	return pairerCache{lru.New[string, *keyPairer](pairerCapacity), &sketch{seed: maphash.MakeSeed()}}
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
// for this exact d, building (or replacing) it when the identity is
// admitted, and by Params.Pair, which a replay is bit-identical to, when it
// is not. A d outside G1 ∖ {O} is never walked: NewFixedPair refuses it
// (curve.ErrNotInSubgroup), Validate gives the plain path the same verdict.
//
// The key must also be dropped (Remove) when it is replaced or withdrawn;
// the d.Equal guard is what makes a racing insert harmless.
func (c pairerCache) pair(pp *pairing.Params, id string, d, u *curve.Point) (*pairing.GT, error) {
	p, ok := c.lookup(id, d)
	if !ok {
		if err := d.Validate(); err != nil {
			return nil, err
		}
		return pp.Pair(d, u)
	}
	p.build.Do(func() { p.fp, p.err = pp.NewFixedPair(p.d) })
	if p.err != nil {
		return nil, p.err
	}
	return p.fp.Pair(u)
}

// lookup counts one request for id and returns the entry its program lives
// in (built or not), or false when the full cache does not admit id.
func (c pairerCache) lookup(id string, d *curve.Point) (*keyPairer, bool) {
	h := c.freq.hash(id)
	c.freq.touch(h)
	p, hit, ok := c.GetOrAdmit(id,
		func(victim string) bool { return c.freq.hotter(h, c.freq.hash(victim)) },
		func() *keyPairer { return &keyPairer{d: d} })
	if hit && !p.d.Equal(d) {
		p = &keyPairer{d: d}
		c.Add(id, p)
	}
	return p, ok
}

// The sketch's shape follows the cache's: four counters a row per cached
// program keep two identities from sharing all their slots, and sixteen
// requests per cached program between halvings let an identity asked a few
// times per turnover stand out without yesterday's hot set outvoting today's.
const (
	sketchRows  = 4
	sketchWidth = 4 * pairerCapacity  // a power of two: slot masks a hash
	sketchReset = 16 * pairerCapacity // requests between halvings
)

// sketch estimates how often each identity was requested lately, TinyLFU
// style: a count-min sketch of one-byte saturating counters, all halved each
// sketchReset requests so that old traffic fades — 4 KB whatever the
// population, nothing allocated per request. The hash is seeded per process,
// so a client cannot choose identities that share a victim's slots.
type sketch struct {
	seed     maphash.Seed
	mu       sync.Mutex
	counters [sketchRows * sketchWidth]uint8
	touches  int // since the last halving
}

func (s *sketch) hash(id string) uint64 { return maphash.String(s.seed, id) }

// slot is h's counter in row r; each row reads its own 16 bits of the hash.
func slot(h uint64, r int) int { return r*sketchWidth + int(h>>(16*r))&(sketchWidth-1) }

// touch counts one request for the identity hashed to h.
//
//cryptolint:hotpath
func (s *sketch) touch(h uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r := 0; r < sketchRows; r++ {
		n := &s.counters[slot(h, r)]
		up := uint16(*n) + 1
		*n = uint8(up - up>>8) // saturates: 255 + 1 − 1
	}
	if s.touches++; s.touches == sketchReset {
		s.touches = 0
		for i := range s.counters {
			s.counters[i] >>= 1
		}
	}
}

// hotter reports whether the identity hashed to h was requested strictly
// more often of late than victim's; a tie keeps the program already built.
func (s *sketch) hotter(h, victim uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.estimate(h) > s.estimate(victim)
}

// estimate is the smallest of h's counters — each is the identity's own
// count plus whatever shares the slot. Caller holds s.mu.
func (s *sketch) estimate(h uint64) uint8 {
	n := uint8(math.MaxUint8)
	for r := 0; r < sketchRows; r++ {
		n = min(n, s.counters[slot(h, r)])
	}
	return n
}

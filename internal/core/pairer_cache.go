package core

import (
	"hash/maphash"
	"math"
	"math/big"
	"sync"

	"repro/internal/curve"
	"repro/internal/lru"
	"repro/internal/pairing"
)

// pairerCapacity bounds a server's per-identity precomputation cache; the
// working set of actively decrypting identities stays warm while idle ones
// age out. A program is two field elements per Miller line — ≈ 45 KB at
// paper size, so a SEM's full cache is ≈ 11 MB. A threshold player's entry
// also grows two ≈ 4 KB combs the first time it proves a share — of its key
// share and of the share's public pairing constant (≈ 53 KB an entry,
// ≈ 13.5 MB full); a SEM never multiplies by its key half, so its entries
// never do.
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

// keyPairer binds what is precomputed for one key to the exact key it was
// derived from, so a cached program can never serve a re-installed
// identity's stale key. The entry goes into the cache before its program
// exists and build makes the program once: connections missing together on
// one identity all find the same entry and share the one NewFixedPair. The
// two combs — the key as a fixed base for secret scalars, and the public
// pairing constant a threshold player raises to its proof nonce — are built
// the same way, each under its own Once, by the first mulSecret and the
// first powSecret, and go when the entry goes.
type keyPairer struct {
	d     *curve.Point
	build sync.Once
	fp    *pairing.FixedPair
	err   error // NewFixedPair's refusal of d, answered to every request

	combOnce sync.Once
	comb     *curve.SecretComb
	combErr  error // NewSecretComb's refusal of d (the same points NewFixedPair refuses)

	powOnce sync.Once
	pow     *pairing.GTSecretComb
	powErr  error // NewGTSecretComb's refusal of a base outside GT
}

// pair returns ê(d, u) for the key d held under id — d walked, u only the
// evaluation point — from the identity's cached program when it was built
// for this exact d, building (or replacing) it when the identity is
// admitted, and by Params.Pair, which a replay is bit-identical to, when it
// is not. A d outside G1 ∖ {O} is never walked: NewFixedPair refuses it
// (curve.ErrNotInSubgroup), Validate gives the plain path the same verdict.
// The entry the value came from is returned beside it, nil when the identity
// was not admitted, for a holder of d that goes on to multiply by it.
//
// The key must also be dropped (Remove) when it is replaced or withdrawn;
// the d.Equal guard is what makes a racing insert harmless.
func (c pairerCache) pair(pp *pairing.Params, id string, d *curve.Point, u curve.EvalArg) (*pairing.GT, *keyPairer, error) {
	p, err := c.program(pp, id, d)
	if err != nil {
		return nil, nil, err
	}
	if p == nil {
		g, err := pp.Pair(d, u)
		return g, nil, err
	}
	g, err := p.fp.Pair(u)
	return g, p, err
}

// pairX is pair for an x-only evaluation point: the same admission, program
// and refusals, the replay and the plain pairing both run in u's ring
// (FixedPair.PairX, Params.PairX).
func (c pairerCache) pairX(pp *pairing.Params, id string, d *curve.Point, u curve.EvalX) (pairing.GTX, error) {
	p, err := c.program(pp, id, d)
	if err != nil {
		return pairing.GTX{}, err
	}
	if p == nil {
		return pp.PairX(d, u)
	}
	return p.fp.PairX(u)
}

// program counts one request for id and returns the entry holding d's built
// program, or nil when the full cache does not admit id — then d has been
// validated for the plain pairing instead.
func (c pairerCache) program(pp *pairing.Params, id string, d *curve.Point) (*keyPairer, error) {
	p, ok := c.lookup(id, d)
	if !ok {
		return nil, d.Validate()
	}
	p.build.Do(func() { p.fp, p.err = pp.NewFixedPair(p.d) })
	if p.err != nil {
		return nil, p.err
	}
	return p, nil
}

// mulSecret returns k·d for a secret scalar k from the entry's comb of d,
// built on its first use: the point d.ScalarMulSecret(k) returns, at under
// half the price from the second call on. A nil entry — an identity the cache
// did not admit, or a caller with no cache — is answered by that ladder.
func (p *keyPairer) mulSecret(d *curve.Point, k *big.Int) (*curve.Point, error) {
	if p == nil {
		return d.ScalarMulSecret(k)
	}
	p.combOnce.Do(func() { p.comb, p.combErr = curve.NewSecretComb(p.d) })
	if p.combErr != nil {
		return nil, p.combErr
	}
	return p.comb.ScalarMul(k), nil
}

// powSecret returns c^r for a secret exponent r, where c is the public
// pairing constant of the key share the entry was made for (the same c on
// every call: it is a function of the identity and the player, as d is), from
// a comb of c built on first use: the element c.ExpSecret(r) returns, at a
// quarter of the price. A nil entry is answered by c.ExpSecret.
func (p *keyPairer) powSecret(c *pairing.GT, r *big.Int) (*pairing.GT, error) {
	if p == nil {
		return c.ExpSecret(r)
	}
	p.powOnce.Do(func() { p.pow, p.powErr = pairing.NewGTSecretComb(c) })
	if p.powErr != nil {
		return nil, p.powErr
	}
	return p.pow.ExpSecret(r), nil
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

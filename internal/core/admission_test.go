package core

import (
	"bytes"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/curve/curvetest"
	"repro/internal/lru"
	"repro/internal/pairing"
)

// policyRun is what one request stream did to one cache.
type policyRun struct {
	requests, hits, builds, rejected int
}

func (r policyRun) hitRatio() float64    { return float64(r.hits) / float64(r.requests) }
func (r policyRun) buildsPerOp() float64 { return float64(r.builds) / float64(r.requests) }

func (r policyRun) plus(o policyRun) policyRun {
	return policyRun{r.requests + o.requests, r.hits + o.hits, r.builds + o.builds, r.rejected + o.rejected}
}

// policySim drives one request stream through the admission the servers
// run — pairerCache.lookup, sketch and all, with the entry standing in for
// its program — and through plain LRU (the same cache with every miss
// admitted: the policy this replaced).
type policySim struct {
	d         *curve.Point
	names     map[int]string
	admission pairerCache
	plain     *lru.Cache[string, *keyPairer]

	requests        int       // since the last window
	admSeen, plSeen lru.Stats // at the last window
}

func newPolicySim(d *curve.Point) *policySim {
	return &policySim{
		d:         d,
		names:     make(map[int]string),
		admission: newPairerCache(NewRegistry()),
		plain:     lru.New[string, *keyPairer](pairerCapacity),
	}
}

func (s *policySim) request(id int) {
	name, ok := s.names[id]
	if !ok {
		name = strconv.Itoa(id)
		s.names[id] = name
	}
	s.admission.lookup(name, s.d)
	s.plain.GetOrAdmit(name, func(string) bool { return true }, func() *keyPairer { return nil })
	s.requests++
}

// window returns both policies' counts since the last call.
func (s *policySim) window() (adm, plain policyRun) {
	since := func(now, then lru.Stats) policyRun {
		rejected := int(now.Rejected - then.Rejected)
		return policyRun{s.requests, int(now.Hits - then.Hits), int(now.Misses-then.Misses) - rejected, rejected}
	}
	a, p := s.admission.Stats(), s.plain.Stats()
	adm, plain = since(a, s.admSeen), since(p, s.plSeen)
	s.admSeen, s.plSeen, s.requests = a, p, 0
	return adm, plain
}

// zipf1 draws from Zipf(s = 1) over [0, n) by inverting the harmonic CDF
// (math/rand's Zipf needs s > 1).
type zipf1 []float64

func newZipf1(n int) zipf1 {
	cdf := make(zipf1, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / float64(k+1)
		cdf[k] = sum
	}
	return cdf
}

func (z zipf1) draw(rng *rand.Rand, _ int) int {
	return sort.SearchFloat64s(z, rng.Float64()*z[len(z)-1])
}

func policyPoint(t *testing.T) *curve.Point {
	t.Helper()
	pp, err := pairing.Toy()
	if err != nil {
		t.Fatal(err)
	}
	return pp.Generator()
}

// policyPhase is a stretch of a request stream: n draws, and what both
// policies' counts over it must satisfy (nil: nothing is asked of it alone).
type policyPhase struct {
	n     int
	draw  func(rng *rand.Rand, i int) int
	check func(t *testing.T, adm, plain policyRun)
	warm  bool // left out of the row's totals
}

func uniform(pop int) func(*rand.Rand, int) int {
	return func(rng *rand.Rand, _ int) int { return rng.Intn(pop) }
}

// TestAdmissionPolicy holds the admission rule to the numbers it was chosen
// for, on seeded streams over integer identities, each also run through
// plain LRU. The streams are deterministic; the sketch's hash seed is not
// (it is per process by design), so every bound is one the policy clears
// with room on any seed — the measured values are in DESIGN §5b.
func TestAdmissionPolicy(t *testing.T) {
	const (
		requests = 200_000
		hotSet   = 128
		period   = 50_000 // requests between moves of the hot set
		scan     = 10_000
	)
	d := policyPoint(t)

	// A hot set that takes four requests in five and moves every period,
	// over a background of identities that hardly ever repeat.
	moving := func(k int) func(*rand.Rand, int) int {
		return func(rng *rand.Rand, _ int) int {
			if rng.Intn(5) == 0 {
				return 1_000_000 + rng.Intn(100_000)
			}
			return 1_000*k + rng.Intn(hotSet)
		}
	}
	var movingPhases []policyPhase
	for k := 0; k < requests/period; k++ {
		movingPhases = append(movingPhases,
			policyPhase{n: 10_000, draw: moving(k)},
			policyPhase{n: 10_000, draw: moving(k), check: func(t *testing.T, adm, _ policyRun) {
				if adm.hitRatio() < 0.70 {
					t.Errorf("hit ratio %.3f between 10 k and 20 k requests after a move, want ≥ 0.70", adm.hitRatio())
				}
			}},
			policyPhase{n: period - 20_000, draw: moving(k)})
	}

	rows := []struct {
		name   string
		phases []policyPhase
		check  func(t *testing.T, adm, plain policyRun)
	}{
		{
			name: "uniform over 4x capacity",
			phases: []policyPhase{
				{n: 20_000, draw: uniform(4 * pairerCapacity), warm: true},
				{n: requests, draw: uniform(4 * pairerCapacity)},
			},
			check: func(t *testing.T, adm, plain policyRun) {
				if plain.buildsPerOp() < 0.70 {
					t.Errorf("LRU builds %.3f programs per request; the row is meant to be its worst case (≥ 0.70)", plain.buildsPerOp())
				}
				if adm.buildsPerOp() > 0.08 || adm.hitRatio() < 0.24 {
					t.Errorf("%.3f builds per request at hit ratio %.3f, want ≤ 0.08 at ≥ 0.24", adm.buildsPerOp(), adm.hitRatio())
				}
			},
		},
		{
			name: "uniform over 22x capacity",
			phases: []policyPhase{
				{n: 20_000, draw: uniform(22 * pairerCapacity), warm: true},
				{n: requests, draw: uniform(22 * pairerCapacity)},
			},
			check: func(t *testing.T, adm, _ policyRun) {
				if adm.buildsPerOp() > 0.10 {
					t.Errorf("%.3f builds per request, want ≤ 0.10", adm.buildsPerOp())
				}
			},
		},
		{
			name: "uniform over a quarter of capacity",
			phases: []policyPhase{
				{n: 20_000, draw: uniform(pairerCapacity / 4), warm: true},
				{n: requests, draw: uniform(pairerCapacity / 4)},
			},
			check: func(t *testing.T, adm, _ policyRun) {
				if adm.rejected != 0 || adm.builds != 0 {
					t.Errorf("%d refused and %d built after warm-up; a population that fits is never refused", adm.rejected, adm.builds)
				}
			},
		},
		{
			// Every identity equally often, in a fixed order: LRU's worst
			// case (each program is evicted before its owner comes round
			// again), and the one kind of stream where the strict rule is
			// delicate — a candidate has always been counted once more
			// than a victim that is not due yet, so a stray admission is
			// followed by one trip of displacements round the residents.
			name:   "round-robin over 4x capacity",
			phases: []policyPhase{{n: requests, draw: func(_ *rand.Rand, i int) int { return i % (4 * pairerCapacity) }}},
			check: func(t *testing.T, adm, plain policyRun) {
				if plain.hits != 0 {
					t.Errorf("LRU hit %d times; the row is meant to be its worst case", plain.hits)
				}
				if adm.buildsPerOp() > 0.05 || adm.hitRatio() < 0.20 {
					t.Errorf("%.3f builds per request at hit ratio %.3f, want ≤ 0.05 at ≥ 0.20", adm.buildsPerOp(), adm.hitRatio())
				}
			},
		},
		{
			name:   "Zipf(1) over 10^4",
			phases: []policyPhase{{n: requests, draw: newZipf1(10_000).draw}},
			check:  noWorseThanLRU(0),
		},
		{
			name:   "Zipf(1) over 10^6",
			phases: []policyPhase{{n: requests, draw: newZipf1(1_000_000).draw}},
			check:  noWorseThanLRU(0),
		},
		{
			// The price of counting: the first few thousand requests after
			// a move are served while the old hot set still outvotes the new.
			name:   "hot set of 128 moving every 50 k",
			phases: movingPhases,
			check:  noWorseThanLRU(0.05),
		},
		{
			// Scan resistance: a full cache of identities in steady use that
			// fall silent for one pass over identities never seen before
			// and never seen again. LRU builds a program for each and
			// loses every resident one. A count-min sketch lets through
			// the few whose counters are all shared with residents: 6–40
			// of the 10 000 over 200 hash seeds, and 193–250 of the 256
			// residents hit afterwards.
			name: "one-pass scan",
			phases: []policyPhase{
				{n: 40 * pairerCapacity, draw: uniform(pairerCapacity), warm: true},
				{n: scan, draw: func(_ *rand.Rand, i int) int { return 1_000_000 + i }, check: func(t *testing.T, adm, plain policyRun) {
					if plain.builds != scan {
						t.Errorf("LRU built %d programs over a scan of %d", plain.builds, scan)
					}
					if adm.builds > scan/100 {
						t.Errorf("%d programs built over a scan of %d, want ≤ 1 %%", adm.builds, scan)
					}
				}},
				{n: pairerCapacity, draw: func(_ *rand.Rand, i int) int { return i }, check: func(t *testing.T, adm, plain policyRun) {
					if plain.hits != 0 {
						t.Errorf("LRU kept %d of the resident identities through the scan; the row expects it to lose them all", plain.hits)
					}
					if adm.hits < pairerCapacity*2/3 {
						t.Errorf("%d of %d resident identities hit after the scan, want ≥ two thirds", adm.hits, pairerCapacity)
					}
				}},
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			s := newPolicySim(d)
			var adm, plain policyRun
			for _, ph := range row.phases {
				for i := 0; i < ph.n; i++ {
					s.request(ph.draw(rng, i))
				}
				a, p := s.window()
				if ph.check != nil {
					ph.check(t, a, p)
				}
				if !ph.warm {
					adm, plain = adm.plus(a), plain.plus(p)
				}
			}
			t.Logf("admission: hit ratio %.3f, %.3f builds per request; LRU: hit ratio %.3f, %.3f builds per request",
				adm.hitRatio(), adm.buildsPerOp(), plain.hitRatio(), plain.buildsPerOp())
			if row.check != nil {
				row.check(t, adm, plain)
			}
		})
	}
}

// noWorseThanLRU wants admission's hit ratio within slack of plain LRU's.
func noWorseThanLRU(slack float64) func(*testing.T, policyRun, policyRun) {
	return func(t *testing.T, adm, plain policyRun) {
		if adm.hitRatio() < plain.hitRatio()-slack {
			t.Errorf("hit ratio %.3f, LRU's %.3f; want no more than %.2f below", adm.hitRatio(), plain.hitRatio(), slack)
		}
	}
}

// TestRefusedMissIsTheSameToken: over a population twice the cache's
// capacity, at every parameter size, the token an identity is given while it
// is refused a program, the token its program gives once it is admitted and
// Pair(d, U) are the same bytes — for U ∈ G1 and for U + T with T of every
// small prime order dividing the cofactor and random T ∈ [q]E(F_p), which is
// DESIGN §7's cofactor-blind property on the path that walks no program.
// Both forms of the token are held to it: Token, and TokenX on U's abscissa
// resolved with U's y.
func TestRefusedMissIsTheSameToken(t *testing.T) {
	forms := map[string]func(sem *IBESEM, id string, u *curve.Point) (*pairing.GT, error){
		"Token": func(sem *IBESEM, id string, u *curve.Point) (*pairing.GT, error) { return sem.Token(id, u) },
		"TokenX": func(sem *IBESEM, id string, u *curve.Point) (*pairing.GT, error) {
			ux, err := sem.pub.Pairing.Curve().UnmarshalX(u.Marshal())
			if err != nil {
				return nil, err
			}
			g, err := sem.TokenX(id, ux)
			if err != nil {
				return nil, err
			}
			return sem.pub.Pairing.ResolveX(g.Bytes(), u)
		},
	}
	for form, tokenOf := range forms {
		for _, name := range []string{"toy", "fast", "paper", "paper_dense"} {
			sub := name
			if form == "TokenX" {
				sub = "TokenX/" + name
			} else if name == "paper_dense" {
				continue
			}
			t.Run(sub, func(t *testing.T) {
				pp, err := pairing.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				pkg, err := NewMediatedPKG(rand.New(rand.NewSource(1)), pp, msgLen)
				if err != nil {
					t.Fatal(err)
				}
				sem := NewIBESEM(pkg.Public(), NewRegistry())
				u, err := pp.Curve().RandomG1(cryptorand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				us := []*curve.Point{u}
				for _, tors := range curvetest.CofactorPoints(t, pp.Curve()) {
					us = append(us, u.Add(tors))
				}
				// The SEM does not care whose key it holds half of: multiples of
				// the generator stand in for 2 × capacity enrolled halves.
				next := 0
				enrol := func(i int) *SEMKeyHalf {
					half := &SEMKeyHalf{ID: unsharedID(sem.pairers, &next), D: pp.GeneratorMul(big.NewInt(int64(i + 2)))}
					sem.Register(half)
					return half
				}
				token := func(half *SEMKeyHalf, u *curve.Point) []byte {
					t.Helper()
					g, err := tokenOf(sem, half.ID, u)
					if err != nil {
						t.Fatal(err)
					}
					return g.Bytes()
				}
				for i := 0; i < pairerCapacity; i++ {
					token(enrol(i), u)
				}
				for i := pairerCapacity; i < 2*pairerCapacity; i++ {
					half := enrol(i)
					want, err := pp.Pair(half.D, u)
					if err != nil {
						t.Fatal(err)
					}
					before := sem.PairerCacheStats()
					refused := token(half, us[i%len(us)])
					mid := sem.PairerCacheStats()
					program := token(half, us[(i+1)%len(us)])
					after := sem.PairerCacheStats()
					if mid.Rejected != before.Rejected+1 || after.Evictions != mid.Evictions+1 || after.Rejected != mid.Rejected {
						t.Fatalf("identity %d: stats %+v → %+v → %+v; want one refused miss, then one admitted", i, before, mid, after)
					}
					if !bytes.Equal(refused, want.Bytes()) || !bytes.Equal(program, want.Bytes()) {
						t.Fatalf("identity %d: the plain path, the program and Pair(d, U) disagree", i)
					}
				}
			})
		}
	}
}

// TestPlainPathNeverServesAnOldKey: revoking, reinstating and re-registering
// an identity whose last token came from the plain path — it holds no cache
// entry for Remove to find — behave as they do for one that holds a program,
// and a program it earns later is dropped with the key it was built for.
func TestPlainPathNeverServesAnOldKey(t *testing.T) {
	pkg, sem := ibeFixture(t)
	pp := pkg.Public().Pairing
	u, _ := pp.Curve().RandomG1(cryptorand.Reader)
	next := 0
	for i := 0; i < pairerCapacity; i++ {
		id := unsharedID(sem.pairers, &next)
		enroll(t, pkg, sem, id)
		for asks := 0; asks < 3; asks++ {
			if _, err := sem.Token(id, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	id := unsharedID(sem.pairers, &next)
	register := func() *curve.Point {
		_, half, err := pkg.SplitExtract(cryptorand.Reader, id)
		if err != nil {
			t.Fatal(err)
		}
		sem.Register(half)
		return half.D
	}
	// expect asks for one token and wants it made from d, by the plain path
	// (refused) or not.
	expect := func(when string, d *curve.Point, refused bool) {
		t.Helper()
		before := sem.PairerCacheStats().Rejected
		got, err := sem.Token(id, u)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		want, err := pp.Pair(d, u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: token made from another key", when)
		}
		if (sem.PairerCacheStats().Rejected > before) != refused {
			t.Fatalf("%s: answered by the plain path: %v, want %v", when, !refused, refused)
		}
	}

	d1 := register()
	expect("first request", d1, true)
	d2 := register()
	expect("re-registered", d2, true)
	sem.Registry().Revoke(id, "compromised")
	if _, err := sem.Token(id, u); !errors.Is(err, ErrRevoked) {
		t.Fatalf("token for a revoked identity last served by the plain path: %v", err)
	}
	sem.Registry().Unrevoke(id)
	expect("reinstated", d2, true)
	// Three requests were answered without a program (the revoked one never
	// reached the cache); the fourth outvotes residents asked three times.
	expect("admitted", d2, false)
	expect("hit", d2, false)
	if sem.PairerCacheLen() != pairerCapacity {
		t.Fatalf("cache holds %d programs, want %d", sem.PairerCacheLen(), pairerCapacity)
	}
	d3 := register()
	if sem.PairerCacheLen() != pairerCapacity-1 {
		t.Fatal("re-registration left the old key's program in the cache")
	}
	expect("re-registered with a program", d3, false)
}

// TestConcurrentAdmissionBuildsOnce: goroutines missing together on an
// identity that has just earned its place in a full cache find one entry and
// share its one NewFixedPair. Run under -race.
func TestConcurrentAdmissionBuildsOnce(t *testing.T) {
	const callers = 32
	pkg, sem := ibeFixture(t)
	pp := pkg.Public().Pairing
	u, _ := pp.Curve().RandomG1(cryptorand.Reader)
	next := 0
	for i := 0; i <= pairerCapacity; i++ {
		id := unsharedID(sem.pairers, &next)
		enroll(t, pkg, sem, id)
		if _, err := sem.Token(id, u); err != nil {
			t.Fatal(err)
		}
	}
	// The last identity found the cache full and was refused; its next
	// request, whichever caller's that is, outvotes a victim asked once.
	id := fmt.Sprintf("user%d@example.com", next-1)
	if st := sem.PairerCacheStats(); st.Rejected != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v after filling the cache and one more; want that one refused", st)
	}
	builds := pairing.AmortizedEngineStats().FixedPairBuilds

	tokens := make([][]byte, callers)
	var wg sync.WaitGroup
	for c := range tokens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g, err := sem.Token(id, u)
			if err != nil {
				t.Error(err)
				return
			}
			tokens[c] = g.Bytes()
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, tok := range tokens {
		if !bytes.Equal(tok, tokens[0]) {
			t.Fatal("callers got different tokens for one ciphertext")
		}
	}
	if got := pairing.AmortizedEngineStats().FixedPairBuilds - builds; got != 1 {
		t.Fatalf("%d Miller programs built for one admitted identity", got)
	}
	if st := sem.PairerCacheStats(); st.Evictions != 1 || st.Hits != callers-1 || st.Rejected != 1 {
		t.Fatalf("stats %+v; want one admission and %d hits", st, callers-1)
	}
}

// TestSketchZeroAllocs: counting a request and weighing two identities
// allocate nothing, through a halving too.
func TestSketchZeroAllocs(t *testing.T) {
	c := newPairerCache(NewRegistry())
	ids := []string{"alice@example.com", "bob@example.com"}
	i := 0
	allocs := testing.AllocsPerRun(2*sketchReset, func() {
		h := c.freq.hash(ids[i%2])
		c.freq.touch(h)
		c.freq.hotter(h, c.freq.hash(ids[(i+1)%2]))
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per request counted", allocs)
	}
}

// TestSketchSaturatesAndHalves: a counter stops at 255 instead of wrapping
// to zero, and every sketchReset requests halve it.
func TestSketchSaturatesAndHalves(t *testing.T) {
	c := newPairerCache(NewRegistry())
	h, other := c.freq.hash("alice@example.com"), c.freq.hash("bob@example.com")
	for i := 0; i < 300; i++ {
		c.freq.touch(h)
	}
	if got := c.freq.estimate(h); got != 255 {
		t.Fatalf("estimate %d after 300 requests, want it saturated at 255", got)
	}
	for i := 300; i < sketchReset; i++ {
		c.freq.touch(other)
	}
	if got := c.freq.estimate(h); got != 127 {
		t.Fatalf("estimate %d after the halving, want 127", got)
	}
	if c.freq.hotter(other, h) || !c.freq.hotter(h, c.freq.hash("carol@example.com")) {
		t.Fatal("hotter does not follow the estimates")
	}
}

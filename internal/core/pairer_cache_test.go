package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/curve"
	"repro/internal/pairing"
)

func TestTokenPopulatesPairerCache(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{0xA1}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}

	if sem.PairerCacheLen() != 0 {
		t.Fatalf("cache pre-populated: %d entries", sem.PairerCacheLen())
	}
	for i := 0; i < 3; i++ {
		got, err := Decrypt(sem, alice, c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d: wrong plaintext", i)
		}
	}
	if sem.PairerCacheLen() != 1 {
		t.Fatalf("cache holds %d entries, want 1", sem.PairerCacheLen())
	}
	st := sem.PairerCacheStats()
	// First token misses (and may re-probe), the two repeats must hit.
	if st.Hits < 2 {
		t.Fatalf("stats = %+v, want ≥2 hits", st)
	}
}

func TestRevokeDropsPairerTable(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{0xB2}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(sem, alice, c); err != nil {
		t.Fatal(err)
	}
	if sem.PairerCacheLen() != 1 {
		t.Fatalf("cache holds %d entries before revoke", sem.PairerCacheLen())
	}

	sem.Registry().Revoke("alice@example.com", "compromised")
	if sem.PairerCacheLen() != 0 {
		t.Fatal("revocation must drop the identity's precomputed table")
	}
	if _, err := sem.Token("alice@example.com", c.U); err == nil {
		t.Fatal("token issued for revoked identity")
	}

	// Unrevoking restores service (the table is rebuilt on demand).
	sem.Registry().Unrevoke("alice@example.com")
	got, err := Decrypt(sem, alice, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext after unrevoke")
	}
	if sem.PairerCacheLen() != 1 {
		t.Fatal("table not rebuilt after unrevoke")
	}
}

func TestReRegisterInvalidatesPairerTable(t *testing.T) {
	pkg, sem := ibeFixture(t)
	alice := enroll(t, pkg, sem, "alice@example.com")
	msg := bytes.Repeat([]byte{0xC3}, msgLen)
	c, err := pkg.Public().Encrypt(rand.Reader, "alice@example.com", msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(sem, alice, c); err != nil {
		t.Fatal(err)
	}

	// Fresh key split for the same identity: the old user half must stop
	// working and the new one must succeed — a stale cached pairing program
	// would break the second property.
	alice2 := enroll(t, pkg, sem, "alice@example.com")
	if sem.PairerCacheLen() != 0 {
		t.Fatal("re-registration must invalidate the precomputed table")
	}
	if _, err := Decrypt(sem, alice, c); err == nil {
		t.Fatal("old key half still decrypts after re-registration")
	}
	got, err := Decrypt(sem, alice2, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong plaintext with re-registered key")
	}
}

// unsharedID returns a fresh identity that has one of the sketch's counters
// to itself — and keeps it, as long as every identity of the test is drawn
// here — so the cache's estimate of it is exactly its own request count.
// The sketch's hash is seeded per process; the tests that pin the strict
// "more often than the victim" rule need that much determinism from it.
func unsharedID(c pairerCache, next *int) string {
	for {
		id := fmt.Sprintf("user%d@example.com", *next)
		*next++
		if c.freq.counters[slot(c.freq.hash(id), 0)] == 0 {
			return id
		}
	}
}

// TestPairerCacheEviction pins admission to a full cache: it never exceeds
// its capacity; a newcomer asked as often as the eviction candidate is
// refused a program, gets the right plaintext all the same and leaves the
// candidate's program in place; asked once more it displaces the next one.
func TestPairerCacheEviction(t *testing.T) {
	pkg, sem := ibeFixture(t)
	msg := bytes.Repeat([]byte{0xD4}, msgLen)
	users := make(map[string]*UserKeyHalf)
	next := 0
	newUser := func() string {
		id := unsharedID(sem.pairers, &next)
		users[id] = enroll(t, pkg, sem, id)
		return id
	}
	decrypt := func(id string) {
		t.Helper()
		c, err := pkg.Public().Encrypt(rand.Reader, id, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decrypt(sem, users[id], c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("wrong plaintext for %s", id)
		}
		if n := sem.PairerCacheLen(); n > pairerCapacity {
			t.Fatalf("cache holds %d programs, capacity %d", n, pairerCapacity)
		}
	}
	expect := func(when string, hits, evictions, rejected uint64) {
		t.Helper()
		st := sem.PairerCacheStats()
		if st.Hits != hits || st.Evictions != evictions || st.Rejected != rejected || sem.PairerCacheLen() != pairerCapacity {
			t.Fatalf("%s: len %d, stats %+v; want a full cache, %d hits, %d evictions, %d rejected",
				when, sem.PairerCacheLen(), st, hits, evictions, rejected)
		}
	}

	// While there is room every first request builds.
	victim := newUser()
	decrypt(victim)
	for i := 1; i < pairerCapacity; i++ {
		decrypt(newUser())
	}
	expect("filled", 0, 0, 0)

	x := newUser()
	decrypt(x)
	expect("newcomer asked once, like the victim", 0, 0, 1)
	decrypt(victim)
	expect("the victim of a refused newcomer", 1, 0, 1)
	decrypt(x)
	expect("newcomer asked twice, the next victim once", 1, 1, 1)
	decrypt(x)
	expect("admitted newcomer", 2, 1, 1)
}

// The same cache serves a threshold player's key shares; the tests below pin
// on ThresholdPlayer what the ones above pin on IBESEM.

// playerFixture is player 1 of a toy (2, 3) system and the dealer that can
// issue it key shares.
func playerFixture(t *testing.T) (*ThresholdPKG, *ThresholdPlayer) {
	t.Helper()
	pkg := thresholdFixture(t, 2, 3)
	player, err := NewThresholdPlayer(pkg.Params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, player
}

func installShare(t *testing.T, pkg *ThresholdPKG, player *ThresholdPlayer, id string) *KeyShare {
	t.Helper()
	ks, err := pkg.ExtractShare(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := player.Install(ks); err != nil {
		t.Fatal(err)
	}
	return ks
}

// TestPairerCacheGuardsTheKey: an entry left behind for an identity's old
// key — a racing insert that slipped past the Remove — is never served for
// the new one: the d.Equal guard replaces it, program and comb alike.
func TestPairerCacheGuardsTheKey(t *testing.T) {
	pkg, _ := playerFixture(t)
	pp := pkg.Params().Public.Pairing
	c := newPairerCache()
	d1, _ := pp.Curve().RandomG1(rand.Reader)
	d2, _ := pp.Curve().RandomG1(rand.Reader)
	u, _ := pp.Curve().RandomG1(rand.Reader)
	k := big.NewInt(0xC0FFEE)
	for _, d := range []*curve.Point{d1, d2, d2, d1} {
		got, entry, err := c.pair(pp, "id", d, u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pp.Pair(d, u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("a program built for another key was served")
		}
		if entry == nil {
			t.Fatal("an identity admitted to a cache with room has no entry")
		}
		v, err := entry.mulSecret(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(d.ScalarMul(k)) {
			t.Fatal("a comb built for another key was served")
		}
	}
	if st := c.Stats(); c.Len() != 1 || st.Hits != 3 {
		t.Fatalf("len %d, stats %+v; want one entry looked up three times after its insert", c.Len(), st)
	}
}

// TestSEMEntryBuildsNoComb: the combs are built by whoever multiplies by the
// key and raises its public constant, which an IBESEM never does — its
// entries stay a Miller program, at the size pairerCapacity's comment gives —
// while a player's entry has both from its first share on.
func TestSEMEntryBuildsNoComb(t *testing.T) {
	pkg, sem := ibeFixture(t)
	enroll(t, pkg, sem, "alice@example.com")
	u, _ := pkg.Public().Pairing.Curve().RandomG1(rand.Reader)
	for i := 0; i < 3; i++ {
		if _, err := sem.Token("alice@example.com", u); err != nil {
			t.Fatal(err)
		}
	}
	entry, ok := sem.pairers.Get("alice@example.com")
	if !ok || entry.fp == nil {
		t.Fatal("three tokens left no program in the cache")
	}
	if entry.comb != nil || entry.pow != nil {
		t.Fatal("an IBESEM entry built a comb")
	}

	tpkg, player := playerFixture(t)
	installShare(t, tpkg, player, "vault@example.com")
	if _, err := player.Share("vault@example.com", u); err != nil {
		t.Fatal(err)
	}
	if entry, ok := player.pairers.Get("vault@example.com"); !ok || entry.comb == nil || entry.pow == nil {
		t.Fatal("a player's first share left no combs beside the program")
	}
}

// TestCombsBuiltOnce: callers that multiply and exponentiate together through
// an entry that has no combs yet all end up on the one pair the first of them
// built, and a nil entry answers the same elements from the ladders. Run
// under -race.
func TestCombsBuiltOnce(t *testing.T) {
	pkg, _ := playerFixture(t)
	pp := pkg.Params().Public.Pairing
	d, _ := pp.Curve().RandomG1(rand.Reader)
	c, err := pp.PairWithGenerator(d)
	if err != nil {
		t.Fatal(err)
	}
	entry := &keyPairer{d: d}
	k := big.NewInt(0xBADC0DE)
	wantV := d.ScalarMul(k)
	wantW, err := c.Exp(k)
	if err != nil {
		t.Fatal(err)
	}

	type built struct {
		comb *curve.SecretComb
		pow  *pairing.GTSecretComb
	}
	const callers = 8
	results := make(chan built, callers)
	for i := 0; i < callers; i++ {
		go func() {
			v, errV := entry.mulSecret(d, k)
			w, errW := entry.powSecret(c, k)
			if errV != nil || errW != nil || !v.Equal(wantV) || !w.Equal(wantW) {
				results <- built{}
				return
			}
			results <- built{entry.comb, entry.pow}
		}()
	}
	first := <-results
	if first.comb == nil || first.pow == nil {
		t.Fatal("a concurrent first use failed or returned the wrong element")
	}
	for i := 1; i < callers; i++ {
		if got := <-results; got != first {
			t.Fatal("concurrent first uses did not share one pair of combs")
		}
	}

	var none *keyPairer
	if v, err := none.mulSecret(d, k); err != nil || !v.Equal(wantV) {
		t.Fatalf("nil entry: k·d = %v, %v", v, err)
	}
	if w, err := none.powSecret(c, k); err != nil || !w.Equal(wantW) {
		t.Fatalf("nil entry: c^k = %v, %v", w, err)
	}
}

// TestPlayerReinstallDropsProgram: a share that replaces another for the
// same identity is served from its own program or not at all. The only
// different share VerifyKeyShare lets through is d + T (there d is the
// evaluation point), so the replacement is also the share the next test is
// about: it must be refused, not answered from d's program.
func TestPlayerReinstallDropsProgram(t *testing.T) {
	pkg, player := playerFixture(t)
	id := "vault@example.com"
	ks := installShare(t, pkg, player, id)
	u, tors := cofactorSplit(t, pkg.Params().Public.Pairing.Curve())
	if _, err := player.Share(id, u); err != nil {
		t.Fatal(err)
	}
	if player.pairers.Len() != 1 {
		t.Fatalf("cache holds %d programs after one share", player.pairers.Len())
	}

	if err := player.Install(&KeyShare{ID: id, Index: 1, D: ks.D.Add(tors)}); err != nil {
		t.Fatalf("VerifyKeyShare is blind to a cofactor component, Install should be too: %v", err)
	}
	if player.pairers.Len() != 0 {
		t.Fatal("re-Install must drop the identity's program")
	}
	if ds, err := player.Share(id, u); !errors.Is(err, curve.ErrNotInSubgroup) {
		t.Fatalf("share served from a replaced key's program: %v, %v", ds, err)
	}

	installShare(t, pkg, player, id)
	ds, err := player.Share(id, u)
	if err != nil {
		t.Fatal(err)
	}
	if err := pkg.Params().VerifyShareProof(id, u, ds); err != nil {
		t.Fatalf("share after re-Install of the honest key: %v", err)
	}
}

// TestPlayerRefusesKeyShareOutsideG1: a share with a cofactor component is
// refused on its first request and on every later one, with the curve's
// typed error, by NewFixedPair's own check — it is never walked, so no G is
// ever computed from it — and so is the cacheless path. Against a full cache
// of identities asked more often, where the bad share is not admitted and
// the plain pairing would answer, Validate gives the same refusal.
func TestPlayerRefusesKeyShareOutsideG1(t *testing.T) {
	for _, full := range []bool{false, true} {
		t.Run(fmt.Sprintf("full=%v", full), func(t *testing.T) {
			pkg, player := playerFixture(t)
			u, tors := cofactorSplit(t, pkg.Params().Public.Pairing.Curve())
			next := 0
			if full {
				for i := 0; i < pairerCapacity; i++ {
					id := unsharedID(player.pairers, &next)
					installShare(t, pkg, player, id)
					for asks := 0; asks < 3; asks++ {
						if _, err := player.Share(id, u); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			id := unsharedID(player.pairers, &next)
			ks, err := pkg.ExtractShare(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			bad := &KeyShare{ID: id, Index: 1, D: ks.D.Add(tors)}
			if err := player.Install(bad); err != nil {
				t.Fatal(err)
			}
			builds := pairing.AmortizedEngineStats().FixedPairBuilds
			rejected := player.pairers.Stats().Rejected
			for i := 0; i < 2; i++ {
				if ds, err := player.Share(id, u); !errors.Is(err, curve.ErrNotInSubgroup) || ds != nil {
					t.Fatalf("request %d: %v, %v; want curve.ErrNotInSubgroup", i, ds, err)
				}
			}
			if got := pairing.AmortizedEngineStats().FixedPairBuilds; got != builds {
				t.Fatalf("%d Miller programs built from a key outside G1", got-builds)
			}
			if got := player.pairers.Stats().Rejected - rejected; full && got != 2 {
				t.Fatalf("%d of 2 requests took the plain-pairing path, want both", got)
			}
			if ds, err := pkg.Params().ComputeShareWithProof(nil, bad, u); !errors.Is(err, curve.ErrNotInSubgroup) || ds != nil {
				t.Fatalf("ComputeShareWithProof: %v, %v; want curve.ErrNotInSubgroup", ds, err)
			}
			if ds, err := pkg.Params().ComputeShare(bad, u); !errors.Is(err, curve.ErrNotInSubgroup) || ds != nil {
				t.Fatalf("ComputeShare: %v, %v; want curve.ErrNotInSubgroup", ds, err)
			}
		})
	}
}

// TestPlayerPairerCacheBounded touches twice the cache's capacity in
// identities, once each: the cache fills and stays at capacity, the second
// half — asked no more often than any program's owner — is refused programs
// and evicts nothing, and every share verifies whichever path made it. One
// of the refused asked again displaces a program.
func TestPlayerPairerCacheBounded(t *testing.T) {
	pkg, player := playerFixture(t)
	u, _ := pkg.Params().Public.Pairing.Curve().RandomG1(rand.Reader)
	share := func(id string) {
		t.Helper()
		ds, err := player.Share(id, u)
		if err != nil {
			t.Fatal(err)
		}
		if err := pkg.Params().VerifyShareProof(id, u, ds); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := player.pairers.Len(); n > pairerCapacity {
			t.Fatalf("cache holds %d programs, capacity %d", n, pairerCapacity)
		}
	}
	ids := make([]string, 2*pairerCapacity)
	next := 0
	for i := range ids {
		ids[i] = unsharedID(player.pairers, &next)
		installShare(t, pkg, player, ids[i])
		share(ids[i])
	}
	if st := player.pairers.Stats(); player.pairers.Len() != pairerCapacity || st.Evictions != 0 || st.Rejected != pairerCapacity {
		t.Fatalf("len %d, stats %+v; want %d entries, as many refused and no eviction", player.pairers.Len(), st, pairerCapacity)
	}
	share(ids[pairerCapacity])
	share(ids[pairerCapacity])
	if st := player.pairers.Stats(); player.pairers.Len() != pairerCapacity || st.Evictions != 1 || st.Hits != 1 {
		t.Fatalf("len %d, stats %+v; want the identity asked twice admitted over one asked once, then hit", player.pairers.Len(), st)
	}
}

// TestConcurrentPlayerShareStress is TestConcurrentTokenStress for a player:
// goroutines missing together on one identity find the same cache entry and
// share its one build, so each identity's program is built exactly once and
// every request but the first per identity is a hit. Run under -race.
func TestConcurrentPlayerShareStress(t *testing.T) {
	const (
		nIdentities = 4
		nCallers    = 8
		nRequests   = 6
	)
	pkg, player := playerFixture(t)
	ids := make([]string, nIdentities)
	for i := range ids {
		ids[i] = fmt.Sprintf("user%d@example.com", i)
		installShare(t, pkg, player, ids[i])
	}
	builds := pairing.AmortizedEngineStats().FixedPairBuilds

	errs := make(chan error, nCallers)
	for c := 0; c < nCallers; c++ {
		go func(c int) {
			for r := 0; r < nRequests; r++ {
				id := ids[(c+r)%nIdentities]
				u, err := pkg.Params().Public.Pairing.Curve().RandomG1(rand.Reader)
				if err != nil {
					errs <- err
					return
				}
				ds, err := player.Share(id, u)
				if err != nil {
					errs <- err
					return
				}
				if err := pkg.Params().VerifyShareProof(id, u, ds); err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", c, r, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < nCallers; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	if got := player.pairers.Len(); got != nIdentities {
		t.Fatalf("cache holds %d programs, want %d", got, nIdentities)
	}
	if st := player.pairers.Stats(); st.Hits < nCallers*nRequests-nIdentities {
		t.Fatalf("stats = %+v, want ≥ %d hits", st, nCallers*nRequests-nIdentities)
	}
	if got := pairing.AmortizedEngineStats().FixedPairBuilds - builds; got != nIdentities {
		t.Fatalf("%d Miller programs built for %d identities", got, nIdentities)
	}
}
